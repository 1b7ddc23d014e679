//! Event-driven server transport: a few event-loop threads share one
//! epoll instance, and each request is handled on the loop that read it
//! (DESIGN.md §5h).
//!
//! The thread-per-connection servers ([`crate::zen::ZenServer`],
//! [`crate::corb::CompadresServer`]) are faithful to the paper's echo
//! demo but burn one OS thread (and its stack) per client — a hard wall
//! well before 10k concurrent connections. This module replaces the
//! server-side I/O model while leaving the protocol, dispatch and
//! memory-architecture layers untouched:
//!
//! * `workers` **event loops** wait on one shared
//!   [`rtplatform::poll::Poller`]. The listener and every accepted
//!   (nonblocking) connection are registered
//!   [one-shot](rtplatform::poll::Interest::oneshot), so each readiness
//!   event reaches exactly one loop, which then **owns** the connection
//!   for one turn: it reads once into the connection's reassembly
//!   chain, carves complete GIOP frames, runs the [`FrameFn`] on each
//!   inline, and re-arms the registration. No two loops ever process one
//!   connection at once, so pipelined requests are answered in order,
//!   and the single bounded read per turn keeps a firehose connection
//!   from starving its neighbours;
//! * handlers reply through a [`ReactorConn`] (a [`Connection`]) whose
//!   `send_chain` **writes through** to the socket when nothing is
//!   queued ahead. Only a partial write queues the remainder and arms
//!   `EPOLLOUT`; the next writable turn flushes the queue with
//!   **vectored writes** that coalesce every queued reply. The existing
//!   handler pipelines — spans, fault replies, service-context echoing
//!   — run unchanged. The eventfd [`rtplatform::poll::Waker`] only
//!   interrupts the loops at shutdown.
//!
//! Observability (all on the server's [`Observer`]): `reactor_connections`
//! gauge (+ high-water mark), the `reactor_coalesced_writes` histogram
//! (frames per vectored write), and the counters
//! `reactor_wakeups_total` (replies sent from outside the connection's
//! turn that had to re-arm the poller to be flushed),
//! `reactor_backpressure_total` (replies the socket could not take at
//! once), `reactor_partial_frames_total`, `reactor_shed_total` and
//! `reactor_protocol_errors_total`.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rtobs::{CounterId, GaugeId, HistId, Observer};
use rtplatform::bufchain::{FrameBuf, RecvChain, SegPool};
use rtplatform::poll::{Interest, PollEvent, Poller, Waker};
use rtplatform::sync::Mutex;

use crate::cdr::Endian;
use crate::giop::{self, HEADER_LEN};
use crate::transport::{Connection, TransportError};

/// Token of the listening socket in the shared poller.
const TOKEN_LISTENER: u64 = 0;
/// Token of the shutdown eventfd.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Events one loop takes per wait. A loop owns every connection whose
/// event it took until it gets to it, so a large batch serializes ready
/// connections on one loop while the others sleep (and lets one blocked
/// handler delay its batch-mates); a small one leaves them to idle loops.
const EVENTS_PER_WAIT: usize = 4;

/// Shards of the connection table, so loops looking up different
/// connections rarely meet on one lock.
const CONN_SHARDS: usize = 16;

/// Most buffer segments gathered into a single vectored write.
const MAX_IOVECS: usize = 64;

/// Segments pre-allocated in the receive pool. Each is `read_chunk`
/// bytes; exhaustion falls back to heap segments (never blocks a loop),
/// it just loses the recycling benefit until frames drop.
const RECV_POOL_SEGS: usize = 16;

/// Sizing and limits for a [`ReactorServer`].
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfig {
    /// Event-loop threads. Each runs frame handlers inline, so this is
    /// also the most requests handled at once: keep it at or below the
    /// server's per-request scope-pool size (the Compadres server CCL
    /// provisions 4 level-3 scopes), and the pool then never blocks a
    /// loop on scope exhaustion.
    pub workers: usize,
    /// Largest accepted GIOP body; a header declaring more is a
    /// protocol violation (MessageError + close), not an allocation.
    pub max_frame: usize,
    /// Segment size of the receive buffer pool — the most bytes one
    /// `read` call, and so one turn, can deliver.
    pub read_chunk: usize,
    /// Most complete frames one turn runs; further frames carved in the
    /// same turn are shed (`reactor_shed_total`). GIOP frames carry no
    /// priority, so this is a coarse per-connection overload valve — the
    /// shed client sees its recv deadline, not a wedged loop.
    /// Priority-aware shedding happens downstream at the component
    /// in-ports (see `rtplatform::fault::AdmissionPolicy`).
    pub inbox_capacity: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            workers: 4,
            max_frame: 16 << 20,
            read_chunk: 64 << 10,
            inbox_capacity: 1024,
        }
    }
}

/// The per-frame callback, run inline on the event loop that read the
/// frame: `(connection, frame)`. The frame is a segment chain carved out
/// of the receive buffers without coalescing — decode it in place
/// ([`crate::giop::decode_view`] over [`FrameBuf::slices`]). Replies (if
/// any) go back through the connection's
/// [`Connection::send_chain`]/[`Connection::send_frame`].
pub type FrameFn = Arc<dyn Fn(&Arc<dyn Connection>, FrameBuf) + Send + Sync>;

type ConnTable = Mutex<HashMap<u64, Arc<ReactorConn>>>;

/// State shared by the event loops and every [`ReactorConn`].
struct Shared {
    poller: Poller,
    listener: TcpListener,
    /// Wakes every loop at shutdown: never drained, so the
    /// level-triggered eventfd stays ready for each waiting loop.
    waker: Waker,
    /// Live connections by token, sharded by `token % CONN_SHARDS`.
    conns: Vec<ConnTable>,
    next_token: AtomicU64,
    /// Receive segments shared by every connection's reassembly chain.
    recv_pool: SegPool,
    cfg: ReactorConfig,
    shutdown: AtomicBool,
    obs: Arc<Observer>,
    handler: FrameFn,
    conns_gauge: GaugeId,
    wakeups: CounterId,
    coalesce_hist: HistId,
    partial_frames: CounterId,
    protocol_errors: CounterId,
    backpressure: CounterId,
    shed: CounterId,
}

/// Write-side state of one connection: queued reply frames plus how far
/// into the front frame a partial write got.
#[derive(Default)]
struct OutBuf {
    queue: VecDeque<FrameBuf>,
    /// Bytes of `queue[0]` already written.
    offset: usize,
}

impl OutBuf {
    /// Writes queued frames until the queue empties or the socket would
    /// block. Each vectored write gathers the rest of the head frame
    /// plus whole queued frames, every segment its own iovec (never
    /// copied together).
    fn flush(&mut self, mut stream: &TcpStream, shared: &Shared) -> io::Result<()> {
        while !self.queue.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOVECS);
            let mut skip = self.offset;
            for s in self.queue[0].slices() {
                if skip < s.len() {
                    slices.push(IoSlice::new(&s[skip..]));
                }
                skip = skip.saturating_sub(s.len());
            }
            let mut frames = 1u64;
            for frame in self.queue.iter().skip(1) {
                let parts = frame.slices();
                if slices.len() + parts.len() > MAX_IOVECS {
                    break;
                }
                slices.extend(parts.into_iter().map(IoSlice::new));
                frames += 1;
            }
            shared.obs.observe(shared.coalesce_hist, frames);
            let mut written = match stream.write_vectored(&slices) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            while let Some(head) = self.queue.front() {
                let head_left = head.len() - self.offset;
                if written < head_left {
                    self.offset += written;
                    break;
                }
                written -= head_left;
                self.queue.pop_front();
                self.offset = 0;
            }
        }
        Ok(())
    }
}

/// One accepted connection. Implements [`Connection`]: `send_chain`
/// writes through (or queues behind a blocked socket); `recv_frame` is
/// unsupported (inbound frames are delivered to the [`FrameFn`], never
/// pulled).
pub struct ReactorConn {
    token: u64,
    /// The one fd of this connection, read and written through `&`.
    stream: TcpStream,
    shared: Arc<Shared>,
    /// Set while a loop owns this connection's turn.
    turn: AtomicBool,
    /// Partial-frame reassembly chain, touched only by the turn owner:
    /// reads land directly in pooled segments and complete frames are
    /// carved off as [`FrameBuf`]s sharing those segments.
    chain: Mutex<RecvChain>,
    /// Replies the socket has not taken yet. Its lock also orders a
    /// sender's `turn` check against the owner's re-arm in `end_turn`.
    outbox: Mutex<OutBuf>,
    /// Set by `close()`, a protocol violation, a write failure or
    /// shutdown. The owner flushes the outbox, then hangs up.
    closing: AtomicBool,
}

impl std::fmt::Debug for ReactorConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReactorConn(token={})", self.token)
    }
}

impl ReactorConn {
    /// Called with the outbox locked after a send or close that needs a
    /// loop: when no loop owns the turn, re-arms the registration for
    /// writing so one takes it. An owner instead sees the queue or the
    /// close in `end_turn`.
    fn wake_loop(&self, _outbox: &OutBuf) {
        if self.turn.load(Ordering::SeqCst) {
            return;
        }
        self.shared.obs.inc(self.shared.wakeups);
        let _ = self.shared.poller.modify(
            self.stream.as_raw_fd(),
            self.token,
            Interest::BOTH.oneshot(),
        );
    }
}

impl Connection for ReactorConn {
    fn send_frame(&self, frame: &[u8]) -> Result<(), TransportError> {
        self.send_chain(&FrameBuf::from_vec(frame.to_vec()))
    }

    fn send_chain(&self, frame: &FrameBuf) -> Result<(), TransportError> {
        if self.closing.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        let shared = &self.shared;
        let mut out = self.outbox.lock();
        // Cloning a FrameBuf only bumps segment refcounts: the reply
        // bytes written by the chain encoder are the bytes scattered
        // into the socket.
        let queued_ahead = !out.queue.is_empty();
        out.queue.push_back(frame.clone());
        if queued_ahead {
            // Behind a blocked socket: the armed EPOLLOUT flushes it.
            return Ok(());
        }
        if let Err(e) = out.flush(&self.stream, shared) {
            out.queue.clear();
            out.offset = 0;
            self.closing.store(true, Ordering::SeqCst);
            self.wake_loop(&out);
            return Err(TransportError::Io(e));
        }
        if !out.queue.is_empty() {
            shared.obs.inc(shared.backpressure);
            self.wake_loop(&out);
        }
        Ok(())
    }

    fn recv_frame(&self) -> Result<Vec<u8>, TransportError> {
        Err(TransportError::Io(io::Error::new(
            io::ErrorKind::Unsupported,
            "reactor connections deliver frames to the handler; recv_frame is never valid",
        )))
    }

    fn close(&self) {
        self.closing.store(true, Ordering::SeqCst);
        let out = self.outbox.lock();
        self.wake_loop(&out);
    }
}

/// Handle to a running reactor server. Dropping it shuts the event
/// loops and every connection down.
pub struct ReactorServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loops: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ReactorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReactorServer({:?})", self.addr)
    }
}

impl ReactorServer {
    /// Binds `127.0.0.1:0` and spawns `cfg.workers` event loops; inbound
    /// frames are handed to `handler` on the loop that read them.
    ///
    /// # Errors
    ///
    /// Bind, epoll or thread-spawn failures.
    pub fn spawn(
        handler: FrameFn,
        obs: Arc<Observer>,
        cfg: ReactorConfig,
    ) -> Result<ReactorServer, TransportError> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(TransportError::Io)?;
        listener.set_nonblocking(true).map_err(TransportError::Io)?;
        let addr = listener.local_addr().map_err(TransportError::Io)?;
        let poller = Poller::new().map_err(TransportError::Io)?;
        poller
            .register(
                listener.as_raw_fd(),
                TOKEN_LISTENER,
                Interest::READ.oneshot(),
            )
            .map_err(TransportError::Io)?;
        let waker = Waker::new(&poller, TOKEN_WAKER).map_err(TransportError::Io)?;

        let shared = Arc::new(Shared {
            poller,
            listener,
            waker,
            conns: (0..CONN_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            next_token: AtomicU64::new(TOKEN_FIRST_CONN),
            recv_pool: SegPool::new(RECV_POOL_SEGS, cfg.read_chunk.max(HEADER_LEN)),
            cfg,
            shutdown: AtomicBool::new(false),
            conns_gauge: obs.gauge("reactor_connections"),
            wakeups: obs.counter("reactor_wakeups_total"),
            coalesce_hist: obs.histogram("reactor_coalesced_writes"),
            partial_frames: obs.counter("reactor_partial_frames_total"),
            protocol_errors: obs.counter("reactor_protocol_errors_total"),
            backpressure: obs.counter("reactor_backpressure_total"),
            shed: obs.counter("reactor_shed_total"),
            obs,
            handler,
        });

        // Built before spawning, so a failed spawn drops (and joins)
        // the loops already running.
        let mut server = ReactorServer {
            addr,
            shared,
            loops: Vec::with_capacity(cfg.workers.max(1)),
        };
        for i in 0..cfg.workers.max(1) {
            let shared = Arc::clone(&server.shared);
            server.loops.push(
                std::thread::Builder::new()
                    .name(format!("orb-reactor-{i}"))
                    .spawn(move || event_loop(&shared))
                    .map_err(TransportError::Io)?,
            );
        }
        Ok(server)
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the event loops and severs every connection.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        self.shared.sever_all();
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        self.shutdown();
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
        // A connection accepted while `shutdown` swept the table.
        self.shared.sever_all();
    }
}

/// One event loop: wait for a few events, run a turn for each.
fn event_loop(shared: &Arc<Shared>) {
    let mut events: Vec<PollEvent> = Vec::with_capacity(EVENTS_PER_WAIT);
    while !shared.shutdown.load(Ordering::SeqCst) {
        // The timeout is a shutdown-latency backstop, not a poll
        // interval: every data path arrives as fd readiness.
        if shared
            .poller
            .wait(
                &mut events,
                EVENTS_PER_WAIT,
                Some(Duration::from_millis(100)),
            )
            .is_err()
        {
            break;
        }
        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => shared.accept_ready(),
                TOKEN_WAKER => {} // shutdown; the loop condition sees it
                token => {
                    let conn = shared.conns[shard(token)].lock().get(&token).cloned();
                    if let Some(conn) = conn {
                        shared.run_turn(&conn, ev);
                    }
                }
            }
        }
    }
}

fn shard(token: u64) -> usize {
    (token % CONN_SHARDS as u64) as usize
}

impl Shared {
    /// Accepts every pending connection, then re-arms the listener.
    fn accept_ready(self: &Arc<Self>) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let token = self.next_token.fetch_add(1, Ordering::Relaxed);
                    let fd = stream.as_raw_fd();
                    let conn = Arc::new(ReactorConn {
                        token,
                        stream,
                        shared: Arc::clone(self),
                        turn: AtomicBool::new(false),
                        chain: Mutex::new(RecvChain::new(&self.recv_pool)),
                        outbox: Mutex::new(OutBuf::default()),
                        closing: AtomicBool::new(false),
                    });
                    self.obs.gauge_add(self.conns_gauge, 1);
                    // Into the table before the poller: an event for an
                    // unknown token is dropped, which would leave the
                    // one-shot registration disarmed for good.
                    self.conns[shard(token)]
                        .lock()
                        .insert(token, Arc::clone(&conn));
                    if self
                        .poller
                        .register(fd, token, Interest::READ.oneshot())
                        .is_err()
                    {
                        self.drop_conn(&conn);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: drained; else retry on re-arm
            }
        }
        let _ = self.poller.modify(
            self.listener.as_raw_fd(),
            TOKEN_LISTENER,
            Interest::READ.oneshot(),
        );
    }

    /// One turn on `conn`: flush if writable, read and run frames if
    /// readable, then re-arm (or hang up).
    fn run_turn(&self, conn: &Arc<ReactorConn>, ev: &PollEvent) {
        if conn.turn.swap(true, Ordering::SeqCst) {
            // Another loop owns this turn (a sender re-armed while its
            // event was in flight); its `end_turn` re-arms again.
            return;
        }
        if ev.writable {
            let mut out = conn.outbox.lock();
            if out.flush(&conn.stream, self).is_err() {
                out.queue.clear();
                out.offset = 0;
                conn.closing.store(true, Ordering::SeqCst);
            }
        }
        let eof = if conn.closing.load(Ordering::SeqCst) {
            // A closing connection reads nothing more; a hang-up ends it.
            ev.closed
        } else {
            (ev.readable || ev.closed) && self.read_frames(conn)
        };
        self.end_turn(conn, eof);
    }

    /// Reads once into the reassembly chain, then runs every complete
    /// frame through the handler in order. Returns whether the peer hung
    /// up (or the socket failed).
    fn read_frames(&self, conn: &Arc<ReactorConn>) -> bool {
        let mut chain = conn.chain.lock();
        let eof = loop {
            // One read per turn is the fairness budget: bytes left in
            // the socket re-fire the registration once `end_turn`
            // re-arms it, behind the other ready connections.
            match chain.read_from(&mut &conn.stream) {
                Ok(0) => break true,
                Ok(_) => break false,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break true,
            }
        };
        let as_dyn: Arc<dyn Connection> = Arc::clone(conn) as Arc<dyn Connection>;
        let mut ran = 0;
        loop {
            let mut header = [0u8; HEADER_LEN];
            if !chain.peek(0, &mut header) {
                if !chain.is_empty() {
                    self.obs.inc(self.partial_frames);
                }
                break;
            }
            let body = match giop::body_size(&header) {
                Ok(b) if b <= self.cfg.max_frame => b,
                _ => {
                    // Bad magic or absurd size: this is not a GIOP
                    // stream. Tell the peer (MessageError), then hang up
                    // once the reply has flushed.
                    self.obs.inc(self.protocol_errors);
                    let _ = conn.send_frame(&giop::encode_error(Endian::native()));
                    conn.closing.store(true, Ordering::SeqCst);
                    let discard = chain.len();
                    let _ = chain.take_frame(discard);
                    break;
                }
            };
            let total = HEADER_LEN + body;
            if chain.len() < total {
                self.obs.inc(self.partial_frames);
                break;
            }
            let frame = chain.take_frame(total);
            if ran >= self.cfg.inbox_capacity.max(1) {
                self.obs.inc(self.shed);
                continue;
            }
            ran += 1;
            (self.handler)(&as_dyn, frame);
        }
        eof
    }

    /// Ends a turn: hangs up on EOF or a finished close, otherwise
    /// releases the turn and re-arms for reading, plus writing while
    /// replies wait. Done under the outbox lock, so a sender on another
    /// thread either queued before this (and is re-armed for here) or
    /// sees the turn released and re-arms itself.
    fn end_turn(&self, conn: &ReactorConn, eof: bool) {
        let out = conn.outbox.lock();
        let closing = conn.closing.load(Ordering::SeqCst);
        if eof || (closing && out.queue.is_empty()) {
            drop(out);
            self.drop_conn(conn);
            return; // the turn stays taken: the connection is gone
        }
        let interest = if closing {
            Interest::WRITE
        } else if out.queue.is_empty() {
            Interest::READ
        } else {
            Interest::BOTH
        };
        conn.turn.store(false, Ordering::SeqCst);
        let _ = self
            .poller
            .modify(conn.stream.as_raw_fd(), conn.token, interest.oneshot());
    }

    fn drop_conn(&self, conn: &ReactorConn) {
        conn.closing.store(true, Ordering::SeqCst);
        self.poller.deregister(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        if self.conns[shard(conn.token)]
            .lock()
            .remove(&conn.token)
            .is_some()
        {
            self.obs.gauge_sub(self.conns_gauge, 1);
        }
    }

    /// Severs every connection so blocked peers fail fast. Emptying the
    /// table also breaks each connection's reference back to `Shared`.
    fn sever_all(&self) {
        for table in &self.conns {
            for (_, conn) in table.lock().drain() {
                conn.closing.store(true, Ordering::SeqCst);
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                self.obs.gauge_sub(self.conns_gauge, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::giop::{decode, Message, RequestMessage};
    use crate::transport::TcpConn;

    /// A handler that echoes the request body back in a reply frame,
    /// decoding in place over the delivered segment chain.
    fn echo_handler() -> FrameFn {
        Arc::new(|conn, frame| {
            let parts = frame.slices();
            if let Ok(giop::MessageView::Request(req)) = giop::decode_view(&parts) {
                if req.response_expected {
                    let reply = giop::ReplyMessage {
                        request_id: req.request_id,
                        status: giop::ReplyStatus::NoException,
                        service_context: req.owned_contexts(),
                        body: req.body.into_owned(),
                    };
                    let _ = conn.send_frame(&reply.encode(Endian::native()));
                }
            }
        })
    }

    fn request(id: u32, body: Vec<u8>) -> Vec<u8> {
        RequestMessage {
            request_id: id,
            response_expected: true,
            object_key: b"echo".to_vec(),
            operation: "echo".to_string(),
            body,
            service_context: Vec::new(),
        }
        .encode(Endian::native())
    }

    #[test]
    fn echo_roundtrip_through_reactor() {
        let srv = ReactorServer::spawn(echo_handler(), Observer::new(), ReactorConfig::default())
            .unwrap();
        let conn = TcpConn::connect(srv.addr()).unwrap();
        conn.send_frame(&request(1, vec![1, 2, 3])).unwrap();
        match decode(&conn.recv_frame().unwrap()).unwrap() {
            Message::Reply(r) => {
                assert_eq!(r.request_id, 1);
                assert_eq!(r.body, vec![1, 2, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pipelined_requests_reply_in_order() {
        let srv = ReactorServer::spawn(echo_handler(), Observer::new(), ReactorConfig::default())
            .unwrap();
        let conn = TcpConn::connect(srv.addr()).unwrap();
        // Fire 50 requests before reading a single reply.
        for i in 0..50u32 {
            conn.send_frame(&request(i, i.to_be_bytes().to_vec()))
                .unwrap();
        }
        for i in 0..50u32 {
            match decode(&conn.recv_frame().unwrap()).unwrap() {
                Message::Reply(r) => assert_eq!(r.request_id, i, "FIFO per connection"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn many_connections_multiplex() {
        let obs = Observer::new();
        let srv = ReactorServer::spawn(echo_handler(), Arc::clone(&obs), ReactorConfig::default())
            .unwrap();
        let conns: Vec<TcpConn> = (0..64)
            .map(|_| TcpConn::connect(srv.addr()).unwrap())
            .collect();
        for (i, c) in conns.iter().enumerate() {
            c.send_frame(&request(i as u32, vec![i as u8; 32])).unwrap();
        }
        for (i, c) in conns.iter().enumerate() {
            match decode(&c.recv_frame().unwrap()).unwrap() {
                Message::Reply(r) => assert_eq!(r.body, vec![i as u8; 32]),
                other => panic!("unexpected {other:?}"),
            }
        }
        let g = obs.gauge("reactor_connections");
        assert!(obs.gauge_hwm(g) >= 64, "gauge saw all connections");
    }

    #[test]
    fn garbage_stream_gets_message_error_then_close() {
        let srv = ReactorServer::spawn(echo_handler(), Observer::new(), ReactorConfig::default())
            .unwrap();
        let conn = TcpConn::connect(srv.addr()).unwrap();
        conn.send_frame(b"this is not giop at all.....").unwrap();
        match decode(&conn.recv_frame().unwrap()) {
            Ok(Message::Error) => {}
            other => panic!("expected MessageError, got {other:?}"),
        }
        assert!(matches!(
            conn.recv_frame(),
            Err(TransportError::Closed) | Err(TransportError::Io(_))
        ));
    }

    #[test]
    fn shutdown_severs_connections() {
        let srv = ReactorServer::spawn(echo_handler(), Observer::new(), ReactorConfig::default())
            .unwrap();
        let conn = TcpConn::connect(srv.addr()).unwrap();
        conn.send_frame(&request(9, vec![9])).unwrap();
        let _ = conn.recv_frame().unwrap();
        srv.shutdown();
        assert!(conn.recv_frame().is_err(), "severed on shutdown");
    }
}
