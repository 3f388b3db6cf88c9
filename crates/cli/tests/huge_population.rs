//! A declared population far larger than memory still starts running:
//! pass 1 grows its stream vector as shards finish rather than reserving
//! a slot per declared user before the first one runs.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::Duration;

const SCENARIO: &str = r#"
[scenario]
name = "a trillion phones over two cells"
users = 1000000000000
days_per_user = 1
scheme = "makeidle"
master_seed = 7

[cells]
count = 2

[[carrier]]
profile = "verizon-lte"

[[app]]
kind = "im"
weight = 1.0
"#;

#[test]
fn a_trillion_user_topology_runs_under_a_memory_limit() {
    let dir = std::env::temp_dir().join(format!("tailwise-huge-population-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("huge.toml");
    std::fs::write(&file, SCENARIO).unwrap();
    // The limit is set in the child's own shell, which then becomes the
    // run; 4 GB of address space is far below a slot per declared user.
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -v 4000000 && exec "$0" fleet run "$1" --threads 2 --quiet"#)
        .arg(env!("CARGO_BIN_EXE_tailwise"))
        .arg(&file)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    std::thread::sleep(Duration::from_secs(2));
    let status = child.try_wait().unwrap();
    if status.is_none() {
        child.kill().unwrap();
    }
    child.wait().unwrap();
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(status.is_none(), "the run ended within 2 s ({status:?}), stderr {stderr:?}");
}
