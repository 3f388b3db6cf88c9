//! A minimal JSON writer for the raw measurement files (the workspace
//! vendors no serializer). Values are rendered eagerly into strings.

/// A JSON object under construction; keys keep insertion order.
#[derive(Debug, Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a number; non-finite values become `null`.
    pub fn num(mut self, key: &str, value: f64) -> Obj {
        self.0.push((key.to_string(), number(value)));
        self
    }

    pub fn int(mut self, key: &str, value: u64) -> Obj {
        self.0.push((key.to_string(), value.to_string()));
        self
    }

    pub fn str(mut self, key: &str, value: &str) -> Obj {
        self.0.push((key.to_string(), string(value)));
        self
    }

    pub fn bool(mut self, key: &str, value: bool) -> Obj {
        self.0.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds an already-rendered JSON value.
    pub fn raw(mut self, key: &str, json: String) -> Obj {
        self.0.push((key.to_string(), json));
        self
    }

    pub fn render(&self) -> String {
        let fields: Vec<String> =
            self.0.iter().map(|(key, value)| format!("{}: {value}", string(key))).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

pub fn string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

pub fn numbers(values: &[f64]) -> String {
    array(values.iter().map(|v| number(*v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_and_escapes() {
        let inner = Obj::new().int("n", 3).num("x", 0.5).render();
        let doc = Obj::new().str("s", "a\"b\n").raw("o", inner).raw("a", numbers(&[1.0, f64::NAN]));
        assert_eq!(doc.render(), r#"{"s": "a\"b\n", "o": {"n": 3, "x": 0.5}, "a": [1.0, null]}"#);
    }
}
