//! Per-link TCP fault proxy: the physical half of a [`NetFaultPlan`],
//! realized on real sockets.
//!
//! The DES world injects network faults by editing virtual-time delivery;
//! the threaded world rolls them in [`crate::NetShim`] before a
//! logical hand-off. Both leave the transport itself pristine. This
//! module is the third rung: each worker↔coordinator link gets its own
//! proxy listener, and the plan's drops, corruptions, delays, and flap
//! windows are executed *on the byte stream* — frames eaten whole,
//! payload bytes flipped, frames truncated mid-body with the connection
//! severed, deliveries stalled — so the decode and reconnect paths face
//! the same malice a real flaky fabric would produce.
//!
//! Scope: only entries naming the controller link are realizable here
//! (peer↔peer partitions have no socket in the flat process world); feed
//! this module the physical half of [`NetFaultPlan::split_physical`].

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rna_core::fault::NetFaultPlan;
use rna_simnet::SimRng;

use crate::proto::MAX_FRAME_BYTES;

/// What one pump direction does to each frame it relays.
#[derive(Debug, Clone, Copy, Default)]
struct DirSpec {
    /// Probability a frame is eaten whole (framing on the wire stays
    /// intact — the receiver simply never sees it).
    drop_p: f64,
    /// Probability a frame is mangled: half the time one body byte is
    /// flipped and the frame forwarded, half the time the body is cut
    /// mid-frame and the connection severed.
    corrupt_p: f64,
    /// Extra stall before each forward, microseconds.
    delay_us: u64,
}

/// Both directions of one worker↔coordinator link plus its down-windows.
#[derive(Debug, Clone, Default)]
struct LinkSpec {
    /// Worker → coordinator direction.
    up: DirSpec,
    /// Coordinator → worker direction.
    down: DirSpec,
    /// Flap windows `(from_us, until_us)` since proxy start; a frame
    /// relayed inside a window is truncated and the connection severed.
    flaps: Vec<(u64, u64)>,
}

/// A running set of per-link fault proxies in front of one coordinator.
///
/// Workers dial [`FaultProxy::addr_for`] instead of the coordinator; each
/// accepted connection is paired with a fresh upstream connection and two
/// pump threads that relay frames while executing the link's fault spec.
/// The accept loops keep running, so a worker's reconnect after a sever
/// flows through the same adversarial link.
#[derive(Debug)]
pub struct FaultProxy {
    addrs: Vec<String>,
    injected: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    accepts: Vec<JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts one proxy listener per worker in front of `upstream`.
    ///
    /// `plan` should be the physical half of
    /// [`NetFaultPlan::split_physical`]; entries not naming the
    /// controller (node id `num_workers`) are ignored, and partitions are
    /// always ignored — they are virtual by construction.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when a listener cannot bind.
    pub fn start(
        plan: &NetFaultPlan,
        num_workers: usize,
        upstream: &str,
    ) -> std::io::Result<FaultProxy> {
        let controller = num_workers;
        let mut specs = vec![LinkSpec::default(); num_workers];
        // `(a, b, …)` entries are directional for drops/corrupts/delays
        // (a → b), undirected for flaps — mirroring the DES fabric.
        for &(a, b, p) in plan.drops() {
            if let Some((w, to_coord)) = classify(a, b, controller, num_workers) {
                let d = dir(&mut specs[w], to_coord);
                d.drop_p = d.drop_p.max(p);
            }
        }
        for &(a, b, p) in plan.corrupts() {
            if let Some((w, to_coord)) = classify(a, b, controller, num_workers) {
                let d = dir(&mut specs[w], to_coord);
                d.corrupt_p = d.corrupt_p.max(p);
            }
        }
        for &(a, b, us) in plan.delays() {
            if let Some((w, to_coord)) = classify(a, b, controller, num_workers) {
                let d = dir(&mut specs[w], to_coord);
                d.delay_us = d.delay_us.max(us);
            }
        }
        for &(a, b, lo, hi) in plan.flaps() {
            if let Some((w, _)) = classify(a, b, controller, num_workers) {
                specs[w].flaps.push((lo, hi));
            }
        }

        let epoch = Instant::now();
        let injected = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let seed = plan.seed();
        let mut addrs = Vec::with_capacity(num_workers);
        let mut accepts = Vec::with_capacity(num_workers);
        for (w, spec) in specs.into_iter().enumerate() {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?.to_string());
            let upstream = upstream.to_string();
            let injected = Arc::clone(&injected);
            let stop = Arc::clone(&stop);
            accepts.push(std::thread::spawn(move || {
                accept_loop(
                    &listener, w, &spec, seed, epoch, &upstream, &injected, &stop,
                );
            }));
        }
        Ok(FaultProxy {
            addrs,
            injected,
            stop,
            accepts,
        })
    }

    /// The address worker `w` should dial instead of the coordinator.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn addr_for(&self, w: usize) -> &str {
        &self.addrs[w]
    }

    /// Stops the accept loops and returns the final injected-fault count.
    /// In-flight pump threads drain on their own as both endpoints close.
    pub fn shutdown(self) -> u64 {
        self.stop.store(true, Ordering::Release);
        for addr in &self.addrs {
            // Unblock the accept call; the loop sees `stop` and exits.
            let _ = TcpStream::connect(addr);
        }
        for h in self.accepts {
            let _ = h.join();
        }
        self.injected.load(Ordering::Acquire)
    }
}

/// Maps a plan entry's endpoints onto `(worker, toward_coordinator)`;
/// `None` when the entry does not describe a proxied link.
fn classify(a: usize, b: usize, controller: usize, num_workers: usize) -> Option<(usize, bool)> {
    if b == controller && a < num_workers {
        Some((a, true))
    } else if a == controller && b < num_workers {
        Some((b, false))
    } else {
        None
    }
}

fn dir(spec: &mut LinkSpec, to_coord: bool) -> &mut DirSpec {
    if to_coord {
        &mut spec.up
    } else {
        &mut spec.down
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: &TcpListener,
    w: usize,
    spec: &LinkSpec,
    seed: u64,
    epoch: Instant,
    upstream: &str,
    injected: &Arc<AtomicU64>,
    stop: &Arc<AtomicBool>,
) {
    let mut conn_no: u64 = 0;
    loop {
        let Ok((down_side, _)) = listener.accept() else {
            return;
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(up_side) = TcpStream::connect(upstream) else {
            let _ = down_side.shutdown(Shutdown::Both);
            continue;
        };
        let _ = down_side.set_nodelay(true);
        let _ = up_side.set_nodelay(true);
        conn_no += 1;
        // Each pump draws from its own seeded stream so fault rolls are a
        // function of (plan seed, worker, direction, connection ordinal),
        // not of scheduler interleaving across links.
        let key = |d: u64| {
            seed ^ (((w as u64) << 8) | d).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ conn_no.wrapping_mul(0xD1B5_4A32_D192_ED03)
        };
        for (from, to, d, dspec) in [
            (down_side.try_clone(), up_side.try_clone(), 1, spec.up),
            (up_side.try_clone(), down_side.try_clone(), 2, spec.down),
        ] {
            let (Ok(from), Ok(to)) = (from, to) else {
                continue;
            };
            let rng = SimRng::seed(key(d));
            let flaps = spec.flaps.clone();
            let injected = Arc::clone(injected);
            std::thread::spawn(move || pump(from, to, dspec, &flaps, epoch, rng, &injected));
        }
    }
}

/// Severs both sockets of a pump pair; the sibling pump's blocked read
/// fails and it exits too.
fn sever(from: &TcpStream, to: &TcpStream) {
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Relays length-prefixed frames from `from` to `to`, executing the
/// direction's fault spec per frame. Exits when either socket dies or a
/// fault calls for a sever.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    spec: DirSpec,
    flaps: &[(u64, u64)],
    epoch: Instant,
    mut rng: SimRng,
    injected: &AtomicU64,
) {
    let mut hdr = [0u8; 4];
    let mut body: Vec<u8> = Vec::new();
    loop {
        if from.read_exact(&mut hdr).is_err() {
            sever(&from, &to);
            return;
        }
        let len = u32::from_le_bytes(hdr) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            // Not a frame this protocol could have produced; forward the
            // bytes verbatim and stop pretending to understand the stream.
            let _ = to.write_all(&hdr);
            let _ = std::io::copy(&mut from, &mut to);
            sever(&from, &to);
            return;
        }
        body.resize(len, 0);
        if from.read_exact(&mut body).is_err() {
            sever(&from, &to);
            return;
        }
        let now_us = u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        if flaps.iter().any(|&(lo, hi)| now_us >= lo && now_us < hi) {
            // Down-window: the link dies mid-frame — header plus half the
            // body, then a hard sever. The receiver's framed read fails
            // honestly instead of seeing a clean close between frames.
            let _ = to.write_all(&hdr);
            let _ = to.write_all(&body[..len / 2]);
            injected.fetch_add(1, Ordering::AcqRel);
            sever(&from, &to);
            return;
        }
        if spec.drop_p > 0.0 && rng.uniform_f64(0.0..1.0) < spec.drop_p {
            // Eaten whole: self-delimiting framing means the receiver
            // never notices.
            injected.fetch_add(1, Ordering::AcqRel);
            continue;
        }
        if spec.corrupt_p > 0.0 && rng.uniform_f64(0.0..1.0) < spec.corrupt_p {
            injected.fetch_add(1, Ordering::AcqRel);
            if len > 1 && rng.uniform_u64(0..2) == 0 {
                // Truncate mid-body and sever.
                let cut = 1 + rng.uniform_usize(0..len - 1);
                let _ = to.write_all(&hdr);
                let _ = to.write_all(&body[..cut]);
                sever(&from, &to);
                return;
            }
            // Flip one body byte; depending on where it lands the receiver
            // sees BadMagic, BadTag, a decode error, or silently altered
            // payload — all paths the decoder must survive.
            let i = rng.uniform_usize(0..len);
            body[i] = !body[i];
        }
        if spec.delay_us > 0 {
            injected.fetch_add(1, Ordering::AcqRel);
            std::thread::sleep(Duration::from_micros(spec.delay_us));
        }
        if to
            .write_all(&hdr)
            .and_then(|()| to.write_all(&body))
            .is_err()
        {
            sever(&from, &to);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_msg, write_msg, Msg, ProtoError};

    /// Echo server for exactly one proxied connection: every test below
    /// drives a single connection, and serving just one lets the thread
    /// exit (and `join` return) once that connection dies, however it dies.
    fn echo_upstream() -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let Ok((mut s, _)) = listener.accept() else {
                return;
            };
            let mut scratch = Vec::new();
            loop {
                match read_msg(&mut s) {
                    Ok(Msg::Stop) | Err(_) => return,
                    Ok(m) => {
                        if write_msg(&mut s, &m, &mut scratch).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn clean_link_is_transparent() {
        let (addr, upstream) = echo_upstream();
        let proxy = FaultProxy::start(&NetFaultPlan::none(), 1, &addr).unwrap();
        let mut s = TcpStream::connect(proxy.addr_for(0)).unwrap();
        let mut scratch = Vec::new();
        for iter in 0..10 {
            write_msg(&mut s, &Msg::Heartbeat { iter }, &mut scratch).unwrap();
            match read_msg(&mut s).unwrap() {
                Msg::Heartbeat { iter: got } => assert_eq!(got, iter),
                other => panic!("echoed frame changed shape: {other:?}"),
            }
        }
        write_msg(&mut s, &Msg::Stop, &mut scratch).unwrap();
        drop(s);
        assert_eq!(proxy.shutdown(), 0);
        let _ = upstream.join();
    }

    #[test]
    fn certain_drop_eats_frames_without_breaking_framing() {
        let (addr, upstream) = echo_upstream();
        // Worker 0 → controller 1 frames always dropped; the echo never
        // hears them, so nothing comes back and the socket stays healthy.
        let plan = NetFaultPlan::none().with_seed(5).drop_link(0, 1, 1.0);
        let proxy = FaultProxy::start(&plan, 1, &addr).unwrap();
        let mut s = TcpStream::connect(proxy.addr_for(0)).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut scratch = Vec::new();
        for iter in 0..5 {
            write_msg(&mut s, &Msg::Heartbeat { iter }, &mut scratch).unwrap();
        }
        match read_msg(&mut s) {
            Err(ProtoError::Io(_)) => {}
            other => panic!("expected a read timeout, got {other:?}"),
        }
        drop(s);
        assert!(proxy.shutdown() >= 5);
        let _ = upstream.join();
    }

    #[test]
    fn flap_window_severs_mid_frame() {
        let (addr, upstream) = echo_upstream();
        // The link is down from the start for a long window: the first
        // relayed frame is truncated and the connection severed.
        let plan = NetFaultPlan::none().with_seed(5).flap(0, 1, 0, 60_000_000);
        let proxy = FaultProxy::start(&plan, 1, &addr).unwrap();
        let mut s = TcpStream::connect(proxy.addr_for(0)).unwrap();
        let mut scratch = Vec::new();
        let _ = write_msg(&mut s, &Msg::Heartbeat { iter: 1 }, &mut scratch);
        match read_msg(&mut s) {
            Err(ProtoError::Io(_)) => {}
            other => panic!("expected a dead socket, got {other:?}"),
        }
        drop(s);
        assert_eq!(proxy.shutdown(), 1);
        let _ = upstream.join();
    }
}
