//! A thin blocking client over the line protocol — what the `fleet
//! submit` / `watch` / `jobs` / `cancel` / `shutdown` subcommands (and
//! the end-to-end tests) are built on.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{ClientMsg, ServerMsg};

/// One connection to a running fleet service.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7433`).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Sends one request: the encoded line and its `\n` in one write.
    /// The socket has Nagle's algorithm off (`TCP_NODELAY`), so the
    /// request leaves at once instead of waiting for the server's
    /// delayed ACK of the previous segment.
    pub fn send(&mut self, msg: &ClientMsg) -> std::io::Result<()> {
        let mut line = msg.encode();
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Receives the next server message. `Ok(None)` is a clean EOF —
    /// the server closed the connection (e.g. after a shutdown drain).
    pub fn recv(&mut self) -> std::io::Result<Option<ServerMsg>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            let trimmed = line.trim_end_matches(['\n', '\r']);
            if trimmed.is_empty() {
                continue;
            }
            return ServerMsg::decode(trimmed).map(Some).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("undecodable server message: {e} in {trimmed:?}"),
                )
            });
        }
    }

    /// Receives until the connection closes (the `fleet shutdown`
    /// wait: EOF means the drain finished).
    pub fn recv_until_eof(&mut self) -> std::io::Result<()> {
        while self.recv()?.is_some() {}
        Ok(())
    }
}
