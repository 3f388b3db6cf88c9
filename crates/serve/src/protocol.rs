//! The line-delimited wire protocol between `fleet` clients and the
//! resident service.
//!
//! One message per line, in both directions:
//!
//! ```text
//! line  := verb (" " key "=" value)*
//! value := bare | quoted
//! bare  := [A-Za-z0-9_.:+-]+          # numbers, idents, scheme tokens
//! quoted:= '"' (char | escape)* '"'   # escapes: \" \\ \n \r \t
//! ```
//!
//! Quoted values carry arbitrary text — whole scenario files, rendered
//! reports, manifest TOML — with newlines escaped, so the framing stays
//! strictly one message per line. The full grammar and message-by-
//! message contract live in `docs/SERVICE.md`.
//!
//! Decoding returns [`ScenError`] — the same positioned error type the
//! scenario parser uses — so a malformed line renders compiler-style
//! (`line:col: message`) in the server's error reply. Decoders position
//! errors at column granularity on line 1; the connection loop rewrites
//! the line number to the connection's running line count.

use tailwise_scenfile::{Pos, ScenError};

/// What a client can ask the service.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Submit a scenario file's *text* as a new job. The server parses
    /// it immediately: a parse error is rejected on the spot (no job is
    /// created) and a accepted submission auto-subscribes this
    /// connection to the job's stream.
    Submit {
        /// Full text of a scenario file (what `SourceSet::from_file`
        /// would have read).
        scenario: String,
    },
    /// Subscribe to a job's stream: the replayable history so far
    /// (accepted, rows, final payloads), then everything live.
    Watch {
        /// Job id from an `accepted` message or a `jobs` listing.
        job: u64,
    },
    /// List every job the server knows about.
    Jobs,
    /// Cancel a job: a queued job is dequeued immediately; a running
    /// job stops at the end of its current cell. See `docs/SERVICE.md`
    /// for the exact semantics.
    Cancel {
        /// Job id to cancel.
        job: u64,
    },
    /// Ask the server to shut down gracefully: reject new submissions,
    /// drain accepted jobs, then close every connection.
    Shutdown,
}

/// What the service streams back.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// A submission became a job.
    Accepted {
        /// The new job's id.
        job: u64,
        /// The scenario's display name.
        name: String,
        /// Queue position at submission time (0 = next to run).
        queue: u64,
    },
    /// A live progress tick, sourced from the run's `ProgressTable`.
    Progress {
        /// Job id.
        job: u64,
        /// Users finished so far (topology runs count both passes).
        users_done: u64,
        /// Expected user completions (0 until the runner knows).
        users_total: u64,
        /// User-days folded so far.
        user_days: u64,
        /// Seconds since the job started.
        elapsed_s: f64,
    },
    /// One sweep cell finished (streamed before later cells run).
    Row {
        /// Job id.
        job: u64,
        /// Cell index in sweep-expansion order.
        index: u64,
        /// The cell's `axis=value …` label (empty for a single run).
        label: String,
        /// Users simulated in this cell.
        users: u64,
        /// Total energy under the scheme, J.
        energy_j: f64,
        /// Aggregate savings vs the status quo, percent.
        saved_pct: f64,
    },
    /// The finished job's rendered report (the batch CLI's stdout).
    Report {
        /// Job id.
        job: u64,
        /// `FleetReport::render()` or `SweepReport::render()` text.
        text: String,
    },
    /// The finished job's run manifest (what `--metrics` writes).
    Manifest {
        /// Job id.
        job: u64,
        /// `RunManifest::to_toml_string()` text.
        text: String,
    },
    /// The job finished successfully (always after report + manifest).
    Done {
        /// Job id.
        job: u64,
    },
    /// The job failed (scenario resolution or runtime error).
    Failed {
        /// Job id.
        job: u64,
        /// Rendered `ScenError` (compiler-style, positioned).
        error: String,
    },
    /// The job was cancelled before completing.
    Cancelled {
        /// Job id.
        job: u64,
    },
    /// One row of a `jobs` listing (also the ack for `cancel`).
    Job {
        /// Job id.
        job: u64,
        /// `queued` / `running` / `done` / `failed` / `cancelled`.
        state: String,
        /// The scenario's display name.
        name: String,
    },
    /// Terminates a `jobs` listing.
    End {
        /// How many `job` rows preceded it.
        count: u64,
    },
    /// A protocol-level error: malformed line, unknown job, submission
    /// rejected. The connection stays open.
    Error {
        /// Rendered `ScenError` (compiler-style, positioned).
        message: String,
    },
    /// Graceful shutdown has begun; the connection closes once every
    /// accepted job has drained.
    ShuttingDown {
        /// Jobs still queued or running at shutdown time.
        unfinished: u64,
    },
}

impl ClientMsg {
    /// Encodes the message as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            ClientMsg::Submit { scenario } => {
                format!("submit scenario={}", quote(scenario))
            }
            ClientMsg::Watch { job } => format!("watch job={job}"),
            ClientMsg::Jobs => "jobs".to_string(),
            ClientMsg::Cancel { job } => format!("cancel job={job}"),
            ClientMsg::Shutdown => "shutdown".to_string(),
        }
    }

    /// Decodes one protocol line. Errors are positioned within the
    /// line (line number 1; callers rebase it onto their line count).
    pub fn decode(line: &str) -> Result<ClientMsg, ScenError> {
        let mut fields = Fields::parse(line)?;
        let verb = fields.verb();
        let msg = match verb.as_str() {
            "submit" => ClientMsg::Submit { scenario: fields.take_str("scenario")? },
            "watch" => ClientMsg::Watch { job: fields.take_u64("job")? },
            "jobs" => ClientMsg::Jobs,
            "cancel" => ClientMsg::Cancel { job: fields.take_u64("job")? },
            "shutdown" => ClientMsg::Shutdown,
            other => {
                return Err(ScenError::at(
                    Pos::new(1, 1),
                    format!(
                        "unknown request {other:?} (expected submit, watch, jobs, cancel, \
                         or shutdown)"
                    ),
                ))
            }
        };
        fields.finish()?;
        Ok(msg)
    }
}

impl ServerMsg {
    /// Encodes the message as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            ServerMsg::Accepted { job, name, queue } => {
                format!("accepted job={job} name={} queue={queue}", quote(name))
            }
            ServerMsg::Progress { job, users_done, users_total, user_days, elapsed_s } => format!(
                "progress job={job} users_done={users_done} users_total={users_total} \
                 user_days={user_days} elapsed_s={elapsed_s:?}"
            ),
            ServerMsg::Row { job, index, label, users, energy_j, saved_pct } => format!(
                "row job={job} index={index} label={} users={users} energy_j={energy_j:?} \
                 saved_pct={saved_pct:?}",
                quote(label)
            ),
            ServerMsg::Report { job, text } => format!("report job={job} text={}", quote(text)),
            ServerMsg::Manifest { job, text } => {
                format!("manifest job={job} text={}", quote(text))
            }
            ServerMsg::Done { job } => format!("done job={job}"),
            ServerMsg::Failed { job, error } => {
                format!("failed job={job} error={}", quote(error))
            }
            ServerMsg::Cancelled { job } => format!("cancelled job={job}"),
            ServerMsg::Job { job, state, name } => {
                format!("job job={job} state={state} name={}", quote(name))
            }
            ServerMsg::End { count } => format!("end count={count}"),
            ServerMsg::Error { message } => format!("error message={}", quote(message)),
            ServerMsg::ShuttingDown { unfinished } => {
                format!("shutting-down unfinished={unfinished}")
            }
        }
    }

    /// Decodes one protocol line (see [`ClientMsg::decode`] on error
    /// positioning).
    pub fn decode(line: &str) -> Result<ServerMsg, ScenError> {
        let mut fields = Fields::parse(line)?;
        let verb = fields.verb();
        let msg = match verb.as_str() {
            "accepted" => ServerMsg::Accepted {
                job: fields.take_u64("job")?,
                name: fields.take_str("name")?,
                queue: fields.take_u64("queue")?,
            },
            "progress" => ServerMsg::Progress {
                job: fields.take_u64("job")?,
                users_done: fields.take_u64("users_done")?,
                users_total: fields.take_u64("users_total")?,
                user_days: fields.take_u64("user_days")?,
                elapsed_s: fields.take_f64("elapsed_s")?,
            },
            "row" => ServerMsg::Row {
                job: fields.take_u64("job")?,
                index: fields.take_u64("index")?,
                label: fields.take_str("label")?,
                users: fields.take_u64("users")?,
                energy_j: fields.take_f64("energy_j")?,
                saved_pct: fields.take_f64("saved_pct")?,
            },
            "report" => {
                ServerMsg::Report { job: fields.take_u64("job")?, text: fields.take_str("text")? }
            }
            "manifest" => {
                ServerMsg::Manifest { job: fields.take_u64("job")?, text: fields.take_str("text")? }
            }
            "done" => ServerMsg::Done { job: fields.take_u64("job")? },
            "failed" => {
                ServerMsg::Failed { job: fields.take_u64("job")?, error: fields.take_str("error")? }
            }
            "cancelled" => ServerMsg::Cancelled { job: fields.take_u64("job")? },
            "job" => ServerMsg::Job {
                job: fields.take_u64("job")?,
                state: fields.take_str("state")?,
                name: fields.take_str("name")?,
            },
            "end" => ServerMsg::End { count: fields.take_u64("count")? },
            "error" => ServerMsg::Error { message: fields.take_str("message")? },
            "shutting-down" => {
                ServerMsg::ShuttingDown { unfinished: fields.take_u64("unfinished")? }
            }
            other => {
                return Err(ScenError::at(
                    Pos::new(1, 1),
                    format!("unknown server message {other:?}"),
                ))
            }
        };
        fields.finish()?;
        Ok(msg)
    }
}

/// Escapes and quotes a string value.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One decoded line: the verb plus its `key=value` fields, each
/// remembering the column it started at so error positions are exact.
struct Fields {
    verb: String,
    /// `(key, value, column-of-key)`, in line order.
    fields: Vec<(String, String, usize)>,
}

impl Fields {
    fn parse(line: &str) -> Result<Fields, ScenError> {
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0usize;
        let at = |i: usize| Pos::new(1, i + 1);

        // Verb.
        let start = i;
        while i < chars.len() && !chars[i].is_whitespace() {
            i += 1;
        }
        if i == start {
            return Err(ScenError::at(at(start), "empty message (expected a verb)"));
        }
        let verb: String = chars[start..i].iter().collect();

        // Fields.
        let mut fields = Vec::new();
        loop {
            while i < chars.len() && chars[i] == ' ' {
                i += 1;
            }
            if i >= chars.len() {
                break;
            }
            let key_start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            if i == key_start {
                return Err(ScenError::at(
                    at(i),
                    format!("expected a key=value field, found {:?}", chars[i]),
                ));
            }
            let key: String = chars[key_start..i].iter().collect();
            if i >= chars.len() || chars[i] != '=' {
                return Err(ScenError::at(at(i), format!("key `{key}` is missing its `=`")));
            }
            i += 1; // consume '='
            let value = if i < chars.len() && chars[i] == '"' {
                i += 1; // consume opening quote
                let mut value = String::new();
                loop {
                    if i >= chars.len() {
                        return Err(ScenError::at(
                            at(i),
                            format!("unterminated quoted value for key `{key}`"),
                        ));
                    }
                    match chars[i] {
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\\' => {
                            i += 1;
                            let escaped = *chars.get(i).ok_or_else(|| {
                                ScenError::at(at(i), "dangling escape at end of line")
                            })?;
                            value.push(match escaped {
                                '"' => '"',
                                '\\' => '\\',
                                'n' => '\n',
                                'r' => '\r',
                                't' => '\t',
                                other => {
                                    return Err(ScenError::at(
                                        at(i),
                                        format!(
                                            "unknown escape `\\{other}` (expected \\\" \\\\ \
                                             \\n \\r or \\t)"
                                        ),
                                    ))
                                }
                            });
                            i += 1;
                        }
                        c => {
                            value.push(c);
                            i += 1;
                        }
                    }
                }
                value
            } else {
                let value_start = i;
                while i < chars.len() && !chars[i].is_whitespace() {
                    i += 1;
                }
                if i == value_start {
                    return Err(ScenError::at(at(i), format!("key `{key}` has an empty value")));
                }
                chars[value_start..i].iter().collect()
            };
            fields.push((key, value, key_start));
        }
        Ok(Fields { verb, fields })
    }

    fn verb(&self) -> String {
        self.verb.clone()
    }

    fn take(&mut self, key: &str) -> Result<(String, usize), ScenError> {
        let index = self.fields.iter().position(|(k, _, _)| k == key).ok_or_else(|| {
            ScenError::at(Pos::new(1, 1), format!("`{}` is missing its `{key}=` field", self.verb))
        })?;
        let (_, value, col) = self.fields.remove(index);
        Ok((value, col))
    }

    fn take_str(&mut self, key: &str) -> Result<String, ScenError> {
        Ok(self.take(key)?.0)
    }

    fn take_u64(&mut self, key: &str) -> Result<u64, ScenError> {
        let (value, col) = self.take(key)?;
        value.parse().map_err(|_| {
            ScenError::at(
                Pos::new(1, col + 1),
                format!("`{key}` must be an unsigned integer, got {value:?}"),
            )
        })
    }

    fn take_f64(&mut self, key: &str) -> Result<f64, ScenError> {
        let (value, col) = self.take(key)?;
        value.parse().map_err(|_| {
            ScenError::at(Pos::new(1, col + 1), format!("`{key}` must be a number, got {value:?}"))
        })
    }

    /// Rejects leftover fields — unknown keys are positioned errors,
    /// exactly like unknown scenario-file keys.
    fn finish(self) -> Result<(), ScenError> {
        match self.fields.first() {
            None => Ok(()),
            Some((key, _, col)) => Err(ScenError::at(
                Pos::new(1, col + 1),
                format!("unknown key `{key}` for `{}`", self.verb),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One client message of every kind.
    fn client_messages() -> Vec<ClientMsg> {
        vec![
            ClientMsg::Submit { scenario: "[scenario]\nname = \"x\"\nusers = 5\n".into() },
            ClientMsg::Watch { job: 42 },
            ClientMsg::Jobs,
            ClientMsg::Cancel { job: 7 },
            ClientMsg::Shutdown,
        ]
    }

    /// One server message of every kind.
    fn server_messages() -> Vec<ServerMsg> {
        vec![
            ServerMsg::Accepted { job: 1, name: "rnc storm".into(), queue: 2 },
            ServerMsg::Progress {
                job: 1,
                users_done: 37,
                users_total: 1200,
                user_days: 41,
                elapsed_s: 1.625,
            },
            ServerMsg::Row {
                job: 1,
                index: 0,
                label: "admission=reactive:50:5".into(),
                users: 600,
                energy_j: 12345.678901234567,
                saved_pct: 43.21,
            },
            ServerMsg::Report { job: 1, text: "fleet    : ok\nspeed    : fast\n".into() },
            ServerMsg::Manifest { job: 1, text: "[run]\nname = \"x\"\n".into() },
            ServerMsg::Done { job: 1 },
            ServerMsg::Failed { job: 2, error: "3:7: expected a value".into() },
            ServerMsg::Cancelled { job: 3 },
            ServerMsg::Job { job: 4, state: "running".into(), name: "x \"quoted\"".into() },
            ServerMsg::End { count: 4 },
            ServerMsg::Error { message: "1:1: unknown request \"submot\"".into() },
            ServerMsg::ShuttingDown { unfinished: 2 },
        ]
    }

    #[test]
    fn client_messages_round_trip() {
        for msg in client_messages() {
            let line = msg.encode();
            assert!(!line.contains('\n'), "encoded line must be newline-free: {line:?}");
            assert_eq!(ClientMsg::decode(&line).unwrap(), msg, "{line}");
        }
    }

    #[test]
    fn server_messages_round_trip() {
        for msg in server_messages() {
            let line = msg.encode();
            assert!(!line.contains('\n'), "encoded line must be newline-free: {line:?}");
            assert_eq!(ServerMsg::decode(&line).unwrap(), msg, "{line}");
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        // `{:?}` prints the shortest string that re-parses to the same
        // f64, so streamed row figures survive the wire bit-for-bit.
        for value in [0.1, 1.0 / 3.0, 12345.678901234567, f64::MAX, 5e-324] {
            let msg = ServerMsg::Progress {
                job: 0,
                users_done: 0,
                users_total: 0,
                user_days: 0,
                elapsed_s: value,
            };
            match ServerMsg::decode(&msg.encode()).unwrap() {
                ServerMsg::Progress { elapsed_s, .. } => {
                    assert_eq!(elapsed_s.to_bits(), value.to_bits())
                }
                other => panic!("decoded wrong variant {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_lines_are_positioned_errors() {
        let err = ClientMsg::decode("submot scenario=\"x\"").unwrap_err();
        assert!(err.message.contains("unknown request"), "{err}");

        let err = ClientMsg::decode("watch job=abc").unwrap_err();
        assert_eq!(err.pos, Pos::new(1, 7), "{err}");
        assert!(err.message.contains("unsigned integer"), "{err}");

        let err = ClientMsg::decode("watch job").unwrap_err();
        assert!(err.message.contains("missing its `=`"), "{err}");

        let err = ClientMsg::decode("submit scenario=\"unterminated").unwrap_err();
        assert!(err.message.contains("unterminated"), "{err}");

        let err = ClientMsg::decode("watch job=1 extra=2").unwrap_err();
        assert_eq!(err.pos, Pos::new(1, 13), "{err}");
        assert!(err.message.contains("unknown key `extra`"), "{err}");

        let err = ClientMsg::decode("").unwrap_err();
        assert!(err.message.contains("empty message"), "{err}");
    }

    #[test]
    fn escapes_cover_the_quoting_alphabet() {
        let nasty = "a\"b\\c\nd\re\tf";
        let msg = ClientMsg::Submit { scenario: nasty.into() };
        assert_eq!(
            ClientMsg::decode(&msg.encode()).unwrap(),
            ClientMsg::Submit { scenario: nasty.into() }
        );
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;
        use proptest::prop::collection::vec;

        /// The encoded line of every client and server message kind.
        fn encodings() -> Vec<String> {
            let client = client_messages().iter().map(ClientMsg::encode).collect::<Vec<_>>();
            client.into_iter().chain(server_messages().iter().map(ServerMsg::encode)).collect()
        }

        /// Both decoders over `line`: each answers with a message or an
        /// error positioned inside the line — line 1, a column no
        /// further than one past its last character — never a panic.
        fn decodes_in_place(line: &str) -> Result<(), TestCaseError> {
            let end = line.chars().count() + 1;
            let errors = [ClientMsg::decode(line).err(), ServerMsg::decode(line).err()];
            for err in errors.into_iter().flatten() {
                prop_assert_eq!(err.pos.line, 1, "{} for {:?}", err, line);
                prop_assert!((1..=end).contains(&err.pos.col), "{} for {:?}", err, line);
            }
            Ok(())
        }

        /// Characters that mean something to the line grammar, or any
        /// character at all.
        fn protocol_char() -> impl Strategy<Value = char> {
            const GRAMMAR: [char; 9] = ['"', '\\', '=', ' ', 'n', '0', '-', '.', 'é'];
            (prop::bool::ANY, 0..GRAMMAR.len(), 0u32..0x11_0000).prop_map(|(grammar, i, code)| {
                if grammar {
                    GRAMMAR[i]
                } else {
                    char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
                }
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn mutated_lines_decode_or_fail_in_place(
                pick in 0usize..64,
                edits in vec((0usize..1 << 16, 0u8..3, protocol_char()), 1..4),
            ) {
                let encodings = encodings();
                let mut chars: Vec<char> = encodings[pick % encodings.len()].chars().collect();
                for (at, op, c) in edits {
                    let at = at % (chars.len() + 1);
                    match op {
                        1 if at < chars.len() => chars[at] = c,
                        2 if at < chars.len() => {
                            chars.remove(at);
                        }
                        _ => chars.insert(at, c),
                    }
                }
                decodes_in_place(&chars.into_iter().collect::<String>())?;
            }

            #[test]
            fn truncated_lines_decode_or_fail_in_place(pick in 0usize..64, cut in 0usize..1 << 16) {
                let encodings = encodings();
                let chars: Vec<char> = encodings[pick % encodings.len()].chars().collect();
                let cut = cut % (chars.len() + 1);
                decodes_in_place(&chars[..cut].iter().collect::<String>())?;
            }
        }
    }
}
