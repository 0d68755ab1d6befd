//! How frames move: the [`Transport`] trait and its two
//! implementations.
//!
//! * [`LoopbackTransport`] — in-process, deterministic, seedable. The
//!   fleet drills and the equivalence proptests run on it: a call is a
//!   direct `handle()` on the target shard, an optional seeded
//!   corruptor flips one byte in a reproducible subset of frames (to
//!   prove the `CCM2WIRE` checksum actually gates), and
//!   [`LoopbackTransport::kill`] makes a shard vanish mid-fleet the
//!   way a crashed process would: every later call fails with an I/O
//!   error.
//!
//!   On top of that sits a per-link **fault plan**
//!   ([`LoopbackTransport::set_link_faults`]): before call `n` on the
//!   link to shard `id`, the plan is queried at site `link:{id}#c{n}`
//!   — the same named-site idiom as `ccm2-faults`' `task:`/`store:`
//!   sites, so one seeded plan drives compiler-level and network-level
//!   chaos. The kinds map to network faults: `Panic` drops the frame
//!   (caller sees an I/O error, shard sees nothing), `LoseSignal` is a
//!   one-way partition (the shard handles the frame but the response
//!   is lost), `Stall { units }` defers delivery until `units` later
//!   calls on that link have passed (delay/reorder; the caller still
//!   errors, modeling a client timeout before the late arrival),
//!   `Duplicate` delivers the frame twice (at-least-once conduits),
//!   and `Corrupt { byte }` flips one byte. An exact site
//!   (`link:2#c17`) is a transient hiccup; a glob (`link:2#c*`) is a
//!   standing partition of that link.
//! * [`TcpTransport`] / [`TcpShardServer`] — real sockets on
//!   `127.0.0.1` with ephemeral ports. The integration test runs the
//!   same router code over TCP to show the loopback results are not an
//!   artifact of skipping serialization.
//!
//!   Connections are persistent and pooled per shard: frames are
//!   length-prefixed, so one stream carries any number of exchanges,
//!   and the server serves each connection in a loop until EOF. Only a
//!   clean exchange returns a connection to the pool; after an error,
//!   a timeout or a one-way abandonment it is dropped, since a late
//!   response would desynchronize the framing, and the frame is never
//!   re-sent. Heartbeat probes go through
//!   [`Transport::call_within`], so a peer that accepts but never
//!   answers costs one deadline; the router's eviction calls
//!   [`Transport::sever`], which shuts down the shard's idle and
//!   in-flight connections so calls blocked on it fail over.
//!
//! Both speak the exact same frames; the router cannot tell them
//! apart. That symmetry is the point: everything proven on the
//! deterministic transport holds on the socket one because the only
//! difference is the byte conduit.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ccm2_support::hash::StableHasher;
use parking_lot::Mutex;

use crate::shard::ShardNode;
use crate::wire::{frame_len, FRAME_OVERHEAD};

/// Stall-deferred frames per link: `(due link-call number, frame)`.
type DeferredFrames = HashMap<u32, Vec<(u64, Vec<u8>)>>;

/// Largest payload a reader will allocate for (64 MiB — comfortably
/// above any compile outcome, far below a garbage length prefix).
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Anything that can answer one `CCM2WIRE` frame with another.
pub trait FrameHandler: Send + Sync {
    /// Handles one request frame, returning the response frame.
    fn handle(&self, frame: &[u8]) -> Vec<u8>;
}

impl FrameHandler for ShardNode {
    fn handle(&self, frame: &[u8]) -> Vec<u8> {
        ShardNode::handle(self, frame)
    }
}

/// A way to deliver one frame to a shard and get its answer.
///
/// `call` is synchronous request/response; an `Err` means the shard is
/// unreachable (dead, refused, or the conduit broke) and the router
/// treats it as shard death. A *successful* call whose response fails
/// frame validation is **not** a transport error — that is the
/// checksum plane's business and the router retries.
pub trait Transport: Send + Sync {
    /// Delivers `frame` to `shard`, returning the response frame.
    fn call(&self, shard: u32, frame: &[u8]) -> io::Result<Vec<u8>>;

    /// Like [`call`](Transport::call), but fails with
    /// [`io::ErrorKind::TimedOut`] if no complete response arrives
    /// within `deadline`. Heartbeat probes use it, so a peer that still
    /// accepts but never answers costs one probe period instead of
    /// wedging the detector. Transports that cannot stall ignore the
    /// deadline.
    fn call_within(&self, shard: u32, frame: &[u8], _deadline: Duration) -> io::Result<Vec<u8>> {
        self.call(shard, frame)
    }

    /// Shards this transport can currently reach, ascending.
    fn shards(&self) -> Vec<u32>;

    /// Makes `shard` unreachable (test/drill hook). Returns whether it
    /// was reachable before. Transports that cannot kill return false.
    fn kill(&self, _shard: u32) -> bool {
        false
    }

    /// Cuts every connection to `shard`, idle or mid-call, and fails
    /// later calls to it until [`rejoin`](Transport::rejoin). The
    /// router severs a shard it evicts, so a call blocked on a stalled
    /// peer fails over to a survivor instead of waiting forever.
    fn sever(&self, _shard: u32) {}

    /// Lifts a [`sever`](Transport::sever): the router is taking the
    /// shard back.
    fn rejoin(&self, _shard: u32) {}
}

/// In-process transport: shard id → handler, with optional seeded
/// frame corruption. See the module docs.
#[derive(Default)]
pub struct LoopbackTransport {
    endpoints: Mutex<HashMap<u32, Arc<dyn FrameHandler>>>,
    /// `(seed, rate_ppm)`: frame `n` is corrupted iff the stable hash
    /// of `(seed, n)` lands under `rate_ppm` parts per million —
    /// deterministic for a given seed and call order.
    corrupt: Option<(u64, u32)>,
    calls: AtomicU64,
    corrupted: AtomicU64,
    /// Per-link fault plan (`link:{id}#c{n}` sites) — swappable
    /// mid-run so drills can open and heal partitions.
    link_faults: Mutex<Option<Arc<ccm2_faults::FaultPlan>>>,
    /// Per-link call counters: the `n` in `link:{id}#c{n}`.
    link_calls: Mutex<HashMap<u32, u64>>,
    /// Frames whose delivery a `Stall` deferred: per link, `(due
    /// link-call number, frame)`. Delivered (response discarded) when
    /// the link's counter passes `due`.
    deferred: Mutex<DeferredFrames>,
    link_faults_fired: AtomicU64,
}

impl LoopbackTransport {
    /// A clean loopback: no corruption, no endpoints.
    pub fn new() -> LoopbackTransport {
        LoopbackTransport::default()
    }

    /// A loopback that flips one byte in a seeded `rate_ppm` fraction
    /// of request frames before delivery.
    pub fn with_corruption(seed: u64, rate_ppm: u32) -> LoopbackTransport {
        LoopbackTransport {
            corrupt: Some((seed, rate_ppm)),
            ..LoopbackTransport::default()
        }
    }

    /// Registers (or replaces) the handler for `shard`.
    pub fn register(&self, shard: u32, handler: Arc<dyn FrameHandler>) {
        self.endpoints.lock().insert(shard, handler);
    }

    /// Total calls attempted (including to dead shards).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Frames the corruptor actually damaged.
    pub fn corrupted(&self) -> u64 {
        self.corrupted.load(Ordering::Relaxed)
    }

    /// Installs (or with `None`, heals) the per-link fault plan. Takes
    /// effect on the next call; drills flip this mid-run to open and
    /// close partitions. See the module docs for the site namespace
    /// (`link:{id}#c{n}`) and the kind → network-fault mapping.
    pub fn set_link_faults(&self, plan: Option<Arc<ccm2_faults::FaultPlan>>) {
        *self.link_faults.lock() = plan;
    }

    /// Link faults that actually fired (dropped, one-way'd, deferred,
    /// duplicated, or corrupted a delivery).
    pub fn link_faults_fired(&self) -> u64 {
        self.link_faults_fired.load(Ordering::Relaxed)
    }

    /// Delivers frames a `Stall` parked on this link whose due call
    /// number has passed; their responses are discarded (the callers
    /// that sent them already saw an error — late arrival after a
    /// client timeout).
    fn flush_deferred(&self, shard: u32, now: u64, handler: &Arc<dyn FrameHandler>) {
        let due: Vec<Vec<u8>> = {
            let mut deferred = self.deferred.lock();
            let Some(queue) = deferred.get_mut(&shard) else {
                return;
            };
            let mut ready = Vec::new();
            queue.retain(|(at, frame)| {
                if *at <= now {
                    ready.push(frame.clone());
                    false
                } else {
                    true
                }
            });
            ready
        };
        for frame in due {
            let _ = handler.handle(&frame);
        }
    }
}

impl Transport for LoopbackTransport {
    fn call(&self, shard: u32, frame: &[u8]) -> io::Result<Vec<u8>> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        let handler = self.endpoints.lock().get(&shard).cloned().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("shard {shard} is down"),
            )
        })?;
        let link_n = {
            let mut counts = self.link_calls.lock();
            let c = counts.entry(shard).or_insert(0);
            let n = *c;
            *c += 1;
            n
        };
        // Anything a Stall parked earlier on this link arrives now,
        // before the current frame — late delivery reorders the link.
        self.flush_deferred(shard, link_n, &handler);
        let link_fault = self
            .link_faults
            .lock()
            .as_ref()
            .and_then(|plan| plan.at(&format!("link:{shard}#c{link_n}")));
        let mut frame = std::borrow::Cow::Borrowed(frame);
        if let Some(kind) = link_fault {
            self.link_faults_fired.fetch_add(1, Ordering::Relaxed);
            match kind {
                ccm2_faults::FaultKind::Panic => {
                    // Dropped on the floor: the shard never sees it.
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        format!("link to shard {shard} dropped the frame"),
                    ));
                }
                ccm2_faults::FaultKind::LoseSignal => {
                    // One-way partition: delivered, answer lost.
                    let _ = handler.handle(&frame);
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("response from shard {shard} lost"),
                    ));
                }
                ccm2_faults::FaultKind::Stall { units } => {
                    // Deferred delivery: the frame arrives `units`
                    // link-calls from now; the caller times out today.
                    self.deferred
                        .lock()
                        .entry(shard)
                        .or_default()
                        .push((link_n.saturating_add(units.max(1)), frame.into_owned()));
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("delivery to shard {shard} delayed past the call"),
                    ));
                }
                ccm2_faults::FaultKind::Duplicate => {
                    // At-least-once conduit: same frame, twice. The
                    // first response is discarded (the duplicate's
                    // answer is the one "this" call observes).
                    let _ = handler.handle(&frame);
                }
                ccm2_faults::FaultKind::Corrupt { byte } => {
                    if !frame.is_empty() {
                        let mut bad = frame.into_owned();
                        let at = byte % bad.len();
                        bad[at] ^= 0x55;
                        frame = std::borrow::Cow::Owned(bad);
                    }
                }
            }
        }
        if let Some((seed, rate_ppm)) = self.corrupt {
            let mut h = StableHasher::new();
            h.write_str("ccm2-fabric/loopback-corrupt");
            h.write_u64(seed);
            h.write_u64(n);
            let roll = h.finish().fold64();
            if !frame.is_empty() && roll % 1_000_000 < u64::from(rate_ppm) {
                self.corrupted.fetch_add(1, Ordering::Relaxed);
                let mut bad = frame.into_owned();
                let at = (roll / 1_000_000) as usize % bad.len();
                bad[at] ^= 0x55;
                return Ok(handler.handle(&bad));
            }
        }
        Ok(handler.handle(&frame))
    }

    fn shards(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.endpoints.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn kill(&self, shard: u32) -> bool {
        self.endpoints.lock().remove(&shard).is_some()
    }
}

/// Reads one complete frame off `r`: 16 header bytes, then exactly the
/// length the (not-yet-trusted) header announces. Validation of the
/// checksum happens later in `decode_frame`; this only bounds the read.
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> io::Result<Vec<u8>> {
    let mut header = [0u8; 16];
    r.read_exact(&mut header)?;
    let total = frame_len(&header, max_payload).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "bad frame header (magic/version/length)",
        )
    })?;
    let mut frame = vec![0u8; total];
    frame[..16].copy_from_slice(&header);
    r.read_exact(&mut frame[16..])?;
    Ok(frame)
}

/// Idle connections kept per shard. More concurrent callers than this
/// still get a socket each, but the surplus closes after its exchange,
/// so idle server workers stay bounded too.
const MAX_IDLE_PER_SHARD: usize = 16;

/// One shard's peer entry: where it listens and the connections to it.
struct Peer {
    addr: SocketAddr,
    /// Connections that finished a clean exchange, ready for reuse.
    idle: Vec<Arc<TcpStream>>,
    /// Checked-out connections by call id, so a sever can shut them
    /// down mid-exchange. A call returns its connection to `idle` only
    /// if its id is still here.
    busy: HashMap<u64, Arc<TcpStream>>,
    /// Set by [`Transport::sever`]: calls fail until a rejoin.
    severed: bool,
}

impl Peer {
    fn new(addr: SocketAddr) -> Peer {
        Peer {
            addr,
            idle: Vec::new(),
            busy: HashMap::new(),
            severed: false,
        }
    }

    /// Shuts down every connection, idle or in flight. A caller blocked
    /// reading its response wakes with an error; none is reused.
    fn close_all(&mut self) {
        for conn in self.idle.drain(..).chain(self.busy.drain().map(|(_, c)| c)) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

fn refused(shard: u32) -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionRefused,
        format!("shard {shard} is down"),
    )
}

/// Socket transport: shard id → `127.0.0.1` address, with a pool of
/// persistent connections per shard (`TCP_NODELAY` set). Frames are
/// length-prefixed, so one stream carries any number of exchanges:
/// a call checks a connection out (or opens one), writes its frame,
/// reads exactly one response frame, and checks the connection back
/// in. Only a clean exchange returns a connection to the pool. After
/// an I/O error, a timeout or a one-way abandonment the connection is
/// dropped, because a late response would desynchronize the framing,
/// and the frame is never re-sent on another connection, because the
/// shard may already have handled it.
///
/// Drill hooks mirror the loopback's link faults at the granularity
/// sockets allow: a **full partition** fails the call before touching
/// any socket (the shard sees nothing), a **one-way partition**
/// delivers the frame but abandons the response.
#[derive(Default)]
pub struct TcpTransport {
    peers: Mutex<HashMap<u32, Peer>>,
    partitioned: Mutex<std::collections::HashSet<u32>>,
    one_way: Mutex<std::collections::HashSet<u32>>,
    next_call: AtomicU64,
}

impl TcpTransport {
    /// An empty peer table.
    pub fn new() -> TcpTransport {
        TcpTransport::default()
    }

    /// Registers shard `id` at `addr` (a [`TcpShardServer::addr`]).
    /// Connections pooled for an earlier registration are closed.
    pub fn register(&self, shard: u32, addr: SocketAddr) {
        self.peers.lock().insert(shard, Peer::new(addr));
    }

    /// Opens (`true`) or heals (`false`) a full partition of the link
    /// to `shard`: calls fail without touching the socket.
    pub fn set_partitioned(&self, shard: u32, cut: bool) {
        let mut p = self.partitioned.lock();
        if cut {
            p.insert(shard);
        } else {
            p.remove(&shard);
        }
    }

    /// Opens (`true`) or heals (`false`) a one-way partition: the
    /// frame is written and the shard handles it, but the caller
    /// abandons the connection instead of reading the answer.
    pub fn set_one_way(&self, shard: u32, cut: bool) {
        let mut p = self.one_way.lock();
        if cut {
            p.insert(shard);
        } else {
            p.remove(&shard);
        }
    }

    /// Idle pooled connections to `shard`.
    #[cfg(test)]
    fn idle_connections(&self, shard: u32) -> usize {
        self.peers.lock().get(&shard).map_or(0, |p| p.idle.len())
    }

    /// Checks out an idle connection to `shard`, or opens a new one.
    fn checkout(&self, shard: u32) -> io::Result<(u64, Arc<TcpStream>)> {
        let id = self.next_call.fetch_add(1, Ordering::Relaxed);
        let addr = {
            let mut peers = self.peers.lock();
            let peer = peers.get_mut(&shard).ok_or_else(|| refused(shard))?;
            if peer.severed {
                return Err(refused(shard));
            }
            if let Some(conn) = peer.idle.pop() {
                peer.busy.insert(id, Arc::clone(&conn));
                return Ok((id, conn));
            }
            peer.addr
        };
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let conn = Arc::new(stream);
        // Register the new connection only if the peer is still the one
        // it was opened for and no sever ran while connecting.
        let mut peers = self.peers.lock();
        match peers.get_mut(&shard) {
            Some(peer) if peer.addr == addr && !peer.severed => {
                peer.busy.insert(id, Arc::clone(&conn));
                Ok((id, conn))
            }
            _ => Err(refused(shard)),
        }
    }

    /// Ends call `id`: a clean connection goes back to the pool unless
    /// the peer was severed, killed or re-registered meanwhile.
    fn checkin(&self, shard: u32, id: u64, conn: Arc<TcpStream>, clean: bool) {
        let mut peers = self.peers.lock();
        let Some(peer) = peers.get_mut(&shard) else {
            return;
        };
        if peer.busy.remove(&id).is_some() && clean && peer.idle.len() < MAX_IDLE_PER_SHARD {
            peer.idle.push(conn);
        }
    }

    fn exchange(
        &self,
        shard: u32,
        frame: &[u8],
        deadline: Option<Duration>,
    ) -> io::Result<Vec<u8>> {
        if self.partitioned.lock().contains(&shard) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("link to shard {shard} partitioned"),
            ));
        }
        let (id, conn) = self.checkout(shard)?;
        let result = if self.one_way.lock().contains(&shard) {
            (&*conn).write_all(frame).and_then(|()| {
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("response from shard {shard} lost"),
                ))
            })
        } else {
            round_trip(&conn, frame, deadline)
        };
        self.checkin(shard, id, conn, result.is_ok());
        result
    }
}

/// Writes `frame` and reads one response frame. With a `deadline`, the
/// whole exchange must finish within it; the socket's timeouts are
/// cleared again after a clean exchange, so pooled connections never
/// carry one.
fn round_trip(stream: &TcpStream, frame: &[u8], deadline: Option<Duration>) -> io::Result<Vec<u8>> {
    let Some(deadline) = deadline else {
        (&*stream).write_all(frame)?;
        return read_frame(&mut &*stream, MAX_PAYLOAD);
    };
    let until = Instant::now() + deadline;
    stream.set_write_timeout(Some(deadline))?;
    (&*stream).write_all(frame).map_err(timed_out)?;
    let response =
        read_frame(&mut DeadlineReader { stream, until }, MAX_PAYLOAD).map_err(timed_out)?;
    stream.set_write_timeout(None)?;
    stream.set_read_timeout(None)?;
    Ok(response)
}

/// Socket timeouts surface as `WouldBlock` on some platforms; report
/// them as what they are.
fn timed_out(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::WouldBlock {
        io::Error::new(io::ErrorKind::TimedOut, e)
    } else {
        e
    }
}

/// Reads from a socket until an absolute deadline: each read gets the
/// time that is left as its timeout.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "deadline passed"));
        }
        self.stream.set_read_timeout(Some(left))?;
        (&*self.stream).read(buf)
    }
}

impl Transport for TcpTransport {
    fn call(&self, shard: u32, frame: &[u8]) -> io::Result<Vec<u8>> {
        self.exchange(shard, frame, None)
    }

    fn call_within(&self, shard: u32, frame: &[u8], deadline: Duration) -> io::Result<Vec<u8>> {
        self.exchange(shard, frame, Some(deadline))
    }

    fn shards(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.peers.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Forgets the peer (later calls fail) and closes its pooled
    /// connections; calls already in flight finish, but their
    /// connections are not reused. The server itself is stopped by
    /// whoever owns it — see [`TcpShardServer::stop`].
    fn kill(&self, shard: u32) -> bool {
        self.peers.lock().remove(&shard).is_some()
    }

    fn sever(&self, shard: u32) {
        if let Some(peer) = self.peers.lock().get_mut(&shard) {
            peer.severed = true;
            peer.close_all();
        }
    }

    fn rejoin(&self, shard: u32) {
        if let Some(peer) = self.peers.lock().get_mut(&shard) {
            peer.severed = false;
        }
    }
}

/// An accept loop serving one [`FrameHandler`] on an ephemeral
/// `127.0.0.1` port. Each connection gets one worker thread that
/// serves frames in a loop (one in, one out) until the client closes
/// it, so server threads are bounded by how many callers run at once,
/// not by how many frames they send.
pub struct TcpShardServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accepted: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpShardServer {
    /// Binds an ephemeral port and starts accepting.
    pub fn serve(handler: Arc<dyn FrameHandler>) -> io::Result<TcpShardServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(AtomicU64::new(0));
        let (stop_flag, count) = (Arc::clone(&stop), Arc::clone(&accepted));
        let accept_thread = std::thread::spawn(move || {
            // Live connections (a handle to each socket, to shut it down
            // on stop) and their workers.
            let live: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::default();
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let Ok(handle) = stream.try_clone() else {
                    continue;
                };
                let _ = stream.set_nodelay(true);
                let n = count.fetch_add(1, Ordering::Relaxed);
                live.lock().insert(n, handle);
                workers.retain(|w| !w.is_finished());
                let (handler, live) = (Arc::clone(&handler), Arc::clone(&live));
                workers.push(std::thread::spawn(move || {
                    serve_connection(stream, &*handler);
                    live.lock().remove(&n);
                }));
            }
            for conn in live.lock().values() {
                let _ = conn.shutdown(Shutdown::Both);
            }
            for w in workers {
                let _ = w.join();
            }
        });
        Ok(TcpShardServer {
            addr,
            stop,
            accepted,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address, for [`TcpTransport::register`].
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Stops accepting (a self-connection unblocks the blocking
    /// `accept`), shuts down every live connection — clients may still
    /// hold them idle in their pools — and joins the workers. A frame
    /// already in the handler finishes first.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpShardServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serves frames off one connection until it closes or breaks.
fn serve_connection(mut stream: TcpStream, handler: &dyn FrameHandler) {
    while let Ok(frame) = read_frame(&mut stream, MAX_PAYLOAD) {
        let response = handler.handle(&frame);
        if stream.write_all(&response).is_err() {
            return;
        }
    }
}

/// Frame overhead re-exported for size accounting in the drills.
pub const fn frame_overhead() -> usize {
    FRAME_OVERHEAD
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_frame, encode_frame, Message};

    /// Echoes `Ack` for any valid frame, `Reject` otherwise.
    struct AckHandler;

    impl FrameHandler for AckHandler {
        fn handle(&self, frame: &[u8]) -> Vec<u8> {
            match decode_frame(frame) {
                Some(_) => encode_frame(&Message::Ack),
                None => encode_frame(&Message::Reject {
                    reason: "bad frame".into(),
                    retry_after_ms: 0,
                }),
            }
        }
    }

    #[test]
    fn loopback_routes_kills_and_refuses_dead_shards() {
        let t = LoopbackTransport::new();
        t.register(1, Arc::new(AckHandler));
        t.register(2, Arc::new(AckHandler));
        assert_eq!(t.shards(), vec![1, 2]);

        let frame = encode_frame(&Message::Sync);
        let resp = t.call(1, &frame).unwrap();
        assert_eq!(decode_frame(&resp), Some(Message::Ack));

        assert!(t.kill(1));
        assert!(!t.kill(1), "already dead");
        let err = t.call(1, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert_eq!(t.shards(), vec![2]);
        assert_eq!(t.calls(), 2);
    }

    #[test]
    fn seeded_corruption_is_deterministic_and_caught_by_the_checksum() {
        // A high rate so a small call count definitely hits corruption.
        let make = || {
            let t = LoopbackTransport::with_corruption(0xC0FF, 400_000);
            t.register(7, Arc::new(AckHandler));
            t
        };
        let frame = encode_frame(&Message::Sync);
        let observe = |t: &LoopbackTransport| {
            (0..64)
                .map(|_| {
                    let resp = t.call(7, &frame).unwrap();
                    matches!(decode_frame(&resp), Some(Message::Ack))
                })
                .collect::<Vec<bool>>()
        };
        let (a, b) = (make(), make());
        let (run_a, run_b) = (observe(&a), observe(&b));
        assert_eq!(run_a, run_b, "same seed, same call order, same damage");
        assert!(a.corrupted() > 0, "rate 40% never fired in 64 calls");
        assert!(
            run_a.iter().any(|ok| !ok),
            "every corrupted frame still decoded — checksum is dead"
        );
        assert!(run_a.iter().any(|ok| *ok), "every frame was corrupted");
    }

    #[test]
    fn tcp_round_trips_frames_and_stops_cleanly() {
        let mut server = TcpShardServer::serve(Arc::new(AckHandler)).unwrap();
        let t = TcpTransport::new();
        t.register(3, server.addr());
        assert_eq!(t.shards(), vec![3]);

        let frame = encode_frame(&Message::Sync);
        for _ in 0..4 {
            let resp = t.call(3, &frame).unwrap();
            assert_eq!(decode_frame(&resp), Some(Message::Ack));
        }

        server.stop();
        server.stop(); // idempotent
        assert!(t.kill(3));
        assert!(t.call(3, &frame).is_err(), "dead peer refuses");
    }

    /// Nonces at or above this are answered only after [`SLOW_MS`].
    const SLOW: u64 = 1000;
    const SLOW_MS: u64 = 300;

    /// Echoes every frame byte for byte, so a response names the request
    /// it answers; a `Ping` with a nonce at or above [`SLOW`] is held
    /// for [`SLOW_MS`] first.
    struct EchoHandler;

    impl FrameHandler for EchoHandler {
        fn handle(&self, frame: &[u8]) -> Vec<u8> {
            if let Some(Message::Ping { nonce }) = decode_frame(frame) {
                if nonce >= SLOW {
                    std::thread::sleep(Duration::from_millis(SLOW_MS));
                }
            }
            frame.to_vec()
        }
    }

    /// Holds every frame until opened; counts the frames it holds.
    #[derive(Default)]
    struct GatedHandler {
        open: Mutex<bool>,
        cv: parking_lot::Condvar,
        held: AtomicU64,
    }

    impl GatedHandler {
        fn open(&self) {
            *self.open.lock() = true;
            self.cv.notify_all();
        }
    }

    impl FrameHandler for GatedHandler {
        fn handle(&self, frame: &[u8]) -> Vec<u8> {
            self.held.fetch_add(1, Ordering::SeqCst);
            let mut open = self.open.lock();
            while !*open {
                self.cv.wait(&mut open);
            }
            frame.to_vec()
        }
    }

    fn ping(nonce: u64) -> Vec<u8> {
        encode_frame(&Message::Ping { nonce })
    }

    fn echo_fleet() -> (TcpShardServer, TcpTransport) {
        let server = TcpShardServer::serve(Arc::new(EchoHandler)).unwrap();
        let t = TcpTransport::new();
        t.register(1, server.addr());
        (server, t)
    }

    #[test]
    fn sequential_calls_reuse_one_connection() {
        let (server, t) = echo_fleet();
        for nonce in 0..16 {
            assert_eq!(t.call(1, &ping(nonce)).unwrap(), ping(nonce));
        }
        assert_eq!(server.accepted(), 1, "every call after the first reuses");
        assert_eq!(t.idle_connections(1), 1);
    }

    #[test]
    fn a_connection_is_never_reused_after_an_error_a_one_way_drop_or_a_timeout() {
        let (server, t) = echo_fleet();
        assert_eq!(t.call(1, &ping(1)).unwrap(), ping(1));

        // One-way: the shard handles the frame, the answer is abandoned
        // with its connection.
        t.set_one_way(1, true);
        assert_eq!(
            t.call(1, &ping(2)).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        t.set_one_way(1, false);
        assert_eq!(t.idle_connections(1), 0);
        assert_eq!(t.call(1, &ping(3)).unwrap(), ping(3), "not the lost answer");
        assert_eq!(server.accepted(), 2);

        // Timeout: the late answer arrives on a connection nobody reads.
        let err = t
            .call_within(1, &ping(SLOW), Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(t.idle_connections(1), 0);
        assert_eq!(t.call(1, &ping(4)).unwrap(), ping(4), "not the late answer");
        assert_eq!(server.accepted(), 3);
        std::thread::sleep(Duration::from_millis(SLOW_MS + 50));
        assert_eq!(t.call(1, &ping(5)).unwrap(), ping(5));

        // Error: the shard drops a connection that sent a garbage header.
        assert!(t.call(1, &[0xFF; 32]).is_err());
        assert_eq!(t.idle_connections(1), 0);
        assert_eq!(t.call(1, &ping(6)).unwrap(), ping(6));
        assert_eq!(server.accepted(), 4);

        // A deadline that is met leaves the connection clean for reuse.
        assert_eq!(
            t.call_within(1, &ping(7), Duration::from_secs(5)).unwrap(),
            ping(7)
        );
        assert_eq!(t.call(1, &ping(8)).unwrap(), ping(8));
        assert_eq!(server.accepted(), 4);
    }

    #[test]
    fn stop_returns_while_a_client_holds_pooled_connections() {
        let (mut server, t) = echo_fleet();
        assert_eq!(t.call(1, &ping(1)).unwrap(), ping(1));
        assert_eq!(t.idle_connections(1), 1);
        let (done, stopped) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            server.stop();
            done.send(()).unwrap();
        });
        stopped
            .recv_timeout(Duration::from_secs(10))
            .expect("stop waited on an idle pooled connection");
        stopper.join().unwrap();
        assert!(t.call(1, &ping(2)).is_err(), "the pooled socket was closed");
        assert_eq!(t.idle_connections(1), 0, "a broken connection is dropped");
    }

    #[test]
    fn kill_and_register_drop_the_pool() {
        let (server, t) = echo_fleet();
        assert_eq!(t.call(1, &ping(1)).unwrap(), ping(1));
        assert_eq!(t.idle_connections(1), 1);
        assert!(t.kill(1));
        assert_eq!(t.idle_connections(1), 0);
        assert_eq!(
            t.call(1, &ping(2)).unwrap_err().kind(),
            io::ErrorKind::ConnectionRefused
        );
        t.register(1, server.addr());
        assert_eq!(t.call(1, &ping(3)).unwrap(), ping(3));
        assert_eq!(server.accepted(), 2, "kill closed the first connection");
        t.register(1, server.addr());
        assert_eq!(t.idle_connections(1), 0);
        assert_eq!(t.call(1, &ping(4)).unwrap(), ping(4));
        assert_eq!(server.accepted(), 3, "register closed the second");
    }

    #[test]
    fn concurrent_callers_get_byte_correct_responses() {
        let (server, t) = echo_fleet();
        std::thread::scope(|scope| {
            for caller in 0..4u64 {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..64u64 {
                        // Frames of different sizes, each naming its caller.
                        let frame = encode_frame(&Message::Reject {
                            reason: format!("{caller}/{i}/{}", "x".repeat((i * 97) as usize)),
                            retry_after_ms: caller,
                        });
                        assert_eq!(
                            t.call(1, &frame).unwrap(),
                            frame,
                            "caller {caller} call {i}"
                        );
                    }
                });
            }
        });
        assert!(server.accepted() <= 4, "{} connections", server.accepted());
    }

    #[test]
    fn sever_cuts_calls_in_flight_and_refuses_until_rejoin() {
        let gate = Arc::new(GatedHandler::default());
        let server = TcpShardServer::serve(Arc::clone(&gate) as Arc<dyn FrameHandler>).unwrap();
        let t = Arc::new(TcpTransport::new());
        t.register(1, server.addr());
        let blocked = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || t.call(1, &ping(1)))
        };
        while gate.held.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        t.sever(1);
        assert!(blocked.join().unwrap().is_err(), "the stalled call failed");
        assert_eq!(
            t.call(1, &ping(2)).unwrap_err().kind(),
            io::ErrorKind::ConnectionRefused
        );
        gate.open();
        t.rejoin(1);
        assert_eq!(t.call(1, &ping(3)).unwrap(), ping(3));
    }

    #[test]
    fn read_frame_rejects_garbage_headers_before_allocating() {
        let mut garbage: &[u8] = &[0xFFu8; 64];
        let err = read_frame(&mut garbage, MAX_PAYLOAD).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut short: &[u8] = &[0u8; 3];
        assert!(read_frame(&mut short, MAX_PAYLOAD).is_err());
    }
}
