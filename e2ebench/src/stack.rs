//! The served stack: `LsmDb` (dict-coded blocks) → `Frontend` (2 shards,
//! group commit) → one `Server` on a Unix socket, plus the benchmark's
//! two `ServerClient` connections.

use crate::oracle::Check;
use crate::spans::{Layer, Recorder, Traced};
use crate::workloads::Prepared;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tb_common::{Error, KvEngine, Result};
use tb_compress::BlockCodec;
use tb_frontend::{Frontend, FrontendConfig};
use tb_lsm::{LsmConfig, LsmDb};
use tb_server::{Server, ServerClient};

pub const SHARDS: usize = 2;
pub const CLIENTS: usize = 2;

pub fn lsm_config(dir: &Path) -> LsmConfig {
    let mut config = LsmConfig::new(dir);
    config.sst.codec = BlockCodec::Dict;
    config
}

pub struct Stack {
    pub dir: PathBuf,
    pub lsm: Arc<LsmDb>,
    pub frontend: Arc<Frontend>,
    pub server: Server,
    pub clients: Vec<ServerClient>,
}

impl Stack {
    /// Opens the stack in the fresh directory `dir`; with a recorder,
    /// the frontend and LSM layers are wrapped in [`Traced`].
    pub fn open(dir: PathBuf, rec: Option<&Arc<Recorder>>) -> Result<Stack> {
        let _ = std::fs::remove_dir_all(&dir);
        let lsm = Arc::new(LsmDb::open(lsm_config(&dir.join("db")))?);
        let wrap = |layer, engine: Arc<dyn KvEngine>| -> Arc<dyn KvEngine> {
            match rec {
                Some(rec) => Arc::new(Traced::new(layer, engine, rec.clone())),
                None => engine,
            }
        };
        let frontend = Arc::new(Frontend::start(
            wrap(Layer::Lsm, lsm.clone()),
            FrontendConfig::with_shards(SHARDS),
        ));
        let sock = dir.join("tb.sock");
        let server = Server::bind_unix(&sock, wrap(Layer::Frontend, frontend.clone()))?;
        let clients = (0..CLIENTS)
            .map(|_| ServerClient::connect_unix(&sock))
            .collect::<Result<Vec<_>>>()?;
        Ok(Stack {
            dir,
            lsm,
            frontend,
            server,
            clients,
        })
    }

    /// Loads the workload's records through the socket (the two
    /// connections take alternate bursts), then syncs.
    pub fn load(&self, prepared: &Prepared) -> Result<()> {
        std::thread::scope(|s| {
            let workers: Vec<_> = self
                .clients
                .iter()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || -> Result<()> {
                        for burst in prepared.load.iter().skip(c).step_by(CLIENTS) {
                            for (op, reply) in burst.iter().zip(client.apply_batch(burst.clone())) {
                                match prepared.oracle.check(op, &reply, 0) {
                                    Check::Ok => {}
                                    Check::Failed => {
                                        let why = reply.err().map(|e| e.to_string());
                                        return Err(Error::Internal(format!(
                                            "load op failed: {why:?}"
                                        )));
                                    }
                                    Check::Wrong(why) => {
                                        return Err(Error::Internal(format!(
                                            "load reply wrong: {why}"
                                        )));
                                    }
                                }
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            workers
                .into_iter()
                .try_for_each(|w| w.join().expect("load thread panicked"))
        })?;
        self.clients[0].sync()
    }

    /// Bytes of every file in the data directory.
    pub fn disk_bytes(&self) -> u64 {
        fn walk(path: &Path) -> u64 {
            std::fs::read_dir(path)
                .into_iter()
                .flatten()
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) if m.is_file() => m.len(),
                    _ => 0,
                })
                .sum()
        }
        walk(&self.dir.join("db"))
    }

    /// Closes connections, stops the server and frontend, drops the
    /// engine and removes the data directory.
    pub fn close(self) {
        let Stack {
            dir,
            lsm,
            frontend,
            server,
            clients,
        } = self;
        drop(clients);
        server.stop();
        frontend.shutdown();
        drop(server);
        drop(frontend);
        drop(lsm);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Opens, loads and settles one stack; returns it with its set-up time.
pub fn setup(
    dir: PathBuf,
    prepared: &Prepared,
    rec: Option<&Arc<Recorder>>,
) -> Result<(Stack, f64)> {
    let t0 = Instant::now();
    let stack = Stack::open(dir, rec)?;
    stack.load(prepared)?;
    Ok((stack, t0.elapsed().as_secs_f64()))
}
