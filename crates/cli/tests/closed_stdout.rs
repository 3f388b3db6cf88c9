//! `tailwise … | head`: a reader that closes the pipe early ends the
//! command quietly — exit status 0, nothing on stderr — instead of a
//! `failed printing to stdout` panic.

use std::process::{Command, Stdio};

#[test]
fn writing_into_a_closed_pipe_exits_quietly() {
    for words in [&["carriers"][..], &["help"]] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let output = Command::new(env!("CARGO_BIN_EXE_tailwise"))
            .args(words)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{words:?}: {:?}, stderr {stderr:?}", output.status);
        assert!(stderr.is_empty(), "{words:?}: stderr {stderr:?}");
    }
}
