//! Unified construction API for both ORBs.
//!
//! The historical entry points — `CompadresServer::spawn_tcp`,
//! `spawn_tcp_reactor`, `spawn_tcp_threaded`, `ZenServer::spawn_tcp`,
//! `ZenClient::connect_tcp`, … — grew one static constructor per
//! (transport × fault-policy × ORB) combination. [`ServerBuilder`] and
//! [`ClientBuilder`] collapse that matrix into one fluent surface with
//! two terminal methods each: `serve()` / `connect()` produce the
//! Compadres (component-assembled) ORB, `serve_zen()` / `connect_zen()`
//! the hand-coded ZenOrb comparator. The old constructors survive as
//! deprecated thin shims over the same internals.
//!
//! ```
//! use rtcorba::{ClientBuilder, ServerBuilder};
//! use rtcorba::service::ObjectRegistry;
//!
//! let server = ServerBuilder::new(ObjectRegistry::with_echo()).serve()?;
//! let client = ClientBuilder::new().connect(server.addr().unwrap())?;
//! assert_eq!(client.invoke(b"echo", "echo", &[1, 2])?, vec![1, 2]);
//! # server.shutdown();
//! # Ok::<(), rtcorba::OrbError>(())
//! ```

use std::net::SocketAddr;
use std::sync::Arc;

use rtobs::Observer;
use rtplatform::fault::FaultPolicy;

use crate::corb::{CompadresClient, CompadresServer};
use crate::reactor::ReactorConfig;
use crate::service::ObjectRegistry;
use crate::transport::Connection;
use crate::zen::{ZenClient, ZenServer};
use crate::OrbError;

/// Which I/O model a server runs its connections on.
#[derive(Debug, Clone, Copy)]
pub enum Transport {
    /// Event-driven: a few event loops share one poller and each runs
    /// a request on the loop that read it (DESIGN.md §5h). The default
    /// — scales past the thread-per-client wall.
    Reactor(ReactorConfig),
    /// Paper-faithful acceptor + one reader thread per connection.
    Threaded,
    /// No TCP endpoint: only in-process `attach_loopback` connections.
    Loopback,
}

/// Builds a server ORB — either the component-assembled Compadres ORB
/// ([`serve`](ServerBuilder::serve)) or the hand-coded ZenOrb
/// comparator ([`serve_zen`](ServerBuilder::serve_zen)) — over a chosen
/// [`Transport`].
#[derive(Debug)]
pub struct ServerBuilder {
    registry: Arc<ObjectRegistry>,
    transport: Transport,
    observer: Option<Arc<Observer>>,
}

impl ServerBuilder {
    /// Starts a builder serving `registry` on the default transport
    /// (reactor with [`ReactorConfig::default`]).
    pub fn new(registry: Arc<ObjectRegistry>) -> ServerBuilder {
        ServerBuilder {
            registry,
            transport: Transport::Reactor(ReactorConfig::default()),
            observer: None,
        }
    }

    /// Selects the transport explicitly.
    pub fn transport(mut self, transport: Transport) -> ServerBuilder {
        self.transport = transport;
        self
    }

    /// Selects the reactor transport with explicit sizing.
    pub fn reactor(self, cfg: ReactorConfig) -> ServerBuilder {
        self.transport(Transport::Reactor(cfg))
    }

    /// Selects the thread-per-connection transport.
    pub fn threaded(self) -> ServerBuilder {
        self.transport(Transport::Threaded)
    }

    /// Serves only in-process loopback connections (no TCP endpoint).
    pub fn loopback(self) -> ServerBuilder {
        self.transport(Transport::Loopback)
    }

    /// Sets the number of reactor event loops. Switches to the reactor
    /// transport if another one was selected.
    pub fn workers(self, workers: usize) -> ServerBuilder {
        let mut cfg = self.reactor_cfg();
        cfg.workers = workers.max(1);
        self.reactor(cfg)
    }

    /// Caps how many complete frames one reactor turn on a connection
    /// runs before further frames are shed (`reactor_shed_total`).
    /// Switches to the reactor transport if another one was selected.
    pub fn inbox_capacity(self, frames: usize) -> ServerBuilder {
        let mut cfg = self.reactor_cfg();
        cfg.inbox_capacity = frames.max(1);
        self.reactor(cfg)
    }

    /// Observability domain for the reactor's metrics. The Compadres ORB
    /// ignores this — its reactor always shares the component app's
    /// observer; ZenOrb, which has no component app, records reactor
    /// metrics here (a fresh, disabled observer when unset).
    pub fn observer(mut self, obs: Arc<Observer>) -> ServerBuilder {
        self.observer = Some(obs);
        self
    }

    fn reactor_cfg(&self) -> ReactorConfig {
        match self.transport {
            Transport::Reactor(cfg) => cfg,
            _ => ReactorConfig::default(),
        }
    }

    /// Builds and starts the component-assembled Compadres ORB server.
    ///
    /// # Errors
    ///
    /// Bind, composition or memory failures.
    pub fn serve(self) -> Result<CompadresServer, OrbError> {
        match self.transport {
            Transport::Reactor(cfg) => CompadresServer::serve_reactor(self.registry, cfg),
            Transport::Threaded => CompadresServer::serve_threaded(self.registry),
            Transport::Loopback => CompadresServer::spawn_loopback(self.registry),
        }
    }

    /// Builds and starts the hand-coded ZenOrb comparator server.
    ///
    /// # Errors
    ///
    /// Bind or memory-architecture failures.
    pub fn serve_zen(self) -> Result<ZenServer, OrbError> {
        match self.transport {
            Transport::Reactor(cfg) => {
                let obs = self.observer.unwrap_or_else(Observer::new);
                ZenServer::serve_reactor(self.registry, obs, cfg)
            }
            Transport::Threaded => ZenServer::serve_threaded(self.registry),
            Transport::Loopback => ZenServer::spawn_loopback(self.registry),
        }
    }
}

/// Builds a client ORB — Compadres ([`connect`](ClientBuilder::connect))
/// or ZenOrb ([`connect_zen`](ClientBuilder::connect_zen)) — optionally
/// under a [`FaultPolicy`] whose connect/send/recv deadlines bound every
/// later invocation.
#[derive(Debug, Default)]
pub struct ClientBuilder {
    policy: Option<FaultPolicy>,
}

impl ClientBuilder {
    /// Starts a builder with no fault policy (blocking I/O, no
    /// deadlines).
    pub fn new() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// Arms connect/send/recv deadlines from `policy` on the connection,
    /// so a silent peer surfaces as a deadline miss instead of a wedged
    /// real-time thread.
    pub fn fault_policy(mut self, policy: FaultPolicy) -> ClientBuilder {
        self.policy = Some(policy);
        self
    }

    /// Connects a Compadres client ORB over TCP.
    ///
    /// # Errors
    ///
    /// Connection, composition or memory failures.
    pub fn connect(self, addr: SocketAddr) -> Result<CompadresClient, OrbError> {
        match &self.policy {
            Some(policy) => CompadresClient::tcp_with(addr, policy),
            None => CompadresClient::tcp(addr),
        }
    }

    /// Builds a Compadres client ORB over an established connection
    /// (e.g. a loopback end or a chaos-wrapped conn).
    ///
    /// # Errors
    ///
    /// Composition or memory failures.
    pub fn over(self, conn: Arc<dyn Connection>) -> Result<CompadresClient, OrbError> {
        match &self.policy {
            Some(policy) => CompadresClient::from_conn_with(conn, policy),
            None => CompadresClient::from_conn(conn),
        }
    }

    /// Connects a ZenOrb client over TCP.
    ///
    /// # Errors
    ///
    /// Connection or memory-architecture failures.
    pub fn connect_zen(self, addr: SocketAddr) -> Result<ZenClient, OrbError> {
        match &self.policy {
            Some(policy) => ZenClient::tcp_with(addr, policy),
            None => ZenClient::tcp(addr),
        }
    }

    /// Builds a ZenOrb client over an established connection. The fault
    /// policy, if set, only arms the recv deadline (ZenOrb takes the
    /// connection as-is).
    ///
    /// # Errors
    ///
    /// Memory-architecture failures.
    pub fn over_zen(self, conn: Arc<dyn Connection>) -> Result<ZenClient, OrbError> {
        if let Some(policy) = &self.policy {
            conn.set_deadline(Some(policy.recv_timeout))?;
        }
        ZenClient::from_conn(conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_default_is_reactor() {
        let b = ServerBuilder::new(ObjectRegistry::with_echo());
        assert!(matches!(b.transport, Transport::Reactor(_)));
    }

    #[test]
    fn workers_and_inbox_capacity_compose() {
        let b = ServerBuilder::new(ObjectRegistry::with_echo())
            .workers(2)
            .inbox_capacity(8);
        match b.transport {
            Transport::Reactor(cfg) => {
                assert_eq!(cfg.workers, 2);
                assert_eq!(cfg.inbox_capacity, 8);
            }
            other => panic!("expected reactor, got {other:?}"),
        }
    }

    #[test]
    fn loopback_server_via_builder() {
        let server = ServerBuilder::new(ObjectRegistry::with_echo())
            .loopback()
            .serve()
            .unwrap();
        let conn = server.attach_loopback();
        let client = ClientBuilder::new().over(Arc::new(conn)).unwrap();
        assert_eq!(client.invoke(b"echo", "echo", &[7, 7]).unwrap(), vec![7, 7]);
    }

    #[test]
    fn zen_loopback_via_builder() {
        let server = ServerBuilder::new(ObjectRegistry::with_echo())
            .loopback()
            .serve_zen()
            .unwrap();
        let conn = server.attach_loopback();
        let client = ClientBuilder::new().over_zen(Arc::new(conn)).unwrap();
        assert_eq!(client.invoke(b"echo", "echo", &[9]).unwrap(), vec![9]);
    }
}
