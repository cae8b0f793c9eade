//! The benchmark's own load generator: many logical clients of the TCP
//! cluster multiplexed on one thread with `ppoll(2)`.
//!
//! Each logical client has a connection to every replica, carries at most
//! one request at a time (replicas filter duplicates by per-client sequence
//! number), and completes an operation on `f+1` matching replies. It
//! retransmits an unanswered request every [`RETRANSMIT`], redials a
//! replica whose connection dropped, and records for every operation when
//! it started (its due time in an open loop), when it completed, and
//! whether the quorum result passed the workload's check.

use crate::workload::{check, Expected};
use smartchain_codec::from_bytes;
use smartchain_smr::ordering::SmrMsg;
use smartchain_smr::transport::frame::{encode_frame_into, write_client_hello, FrameKey};
use smartchain_smr::transport::reactor::{FrameReader, WriteQueue};
use smartchain_smr::transport::sys::{PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use smartchain_smr::types::{Reply, Request};
use std::collections::VecDeque;
use std::ffi::{c_int, c_ulong, c_void};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Retransmission period of an unanswered request (the same period the
/// repository's own TCP clients use).
pub const RETRANSMIT: Duration = Duration::from_millis(500);
/// An operation without a reply quorum after this long counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(20);
/// Pause between dials of a replica that refused a connection.
const REDIAL: Duration = Duration::from_millis(100);

/// Builds the next operation for a client: `(client index, client id, seq,
/// op index)` → the request and its expected result, or `None` when the
/// client has no more inputs.
pub type OpSource = Box<dyn FnMut(usize, u64, u64, u64) -> Option<(Request, Expected)>>;

/// One finished operation.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    /// Due time (open loop) or first send (closed loop): latency origin.
    pub start: Instant,
    /// First send to the replicas.
    pub sent: Instant,
    /// Quorum reached, or the moment the operation was declared failed.
    pub done: Instant,
    /// Quorum reached and its result passed the check.
    pub ok: bool,
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    wq: WriteQueue,
}

struct Slot {
    conn: Option<Conn>,
    next_dial: Instant,
}

struct InFlight {
    seq: u64,
    expected: Expected,
    frame: Vec<u8>,
    start: Instant,
    sent: Instant,
    last_sent: Instant,
    tally: Tally,
}

/// Replies to one request: each distinct result with the bitmask of the
/// replicas (by connection) that returned it.
#[derive(Debug, Default)]
pub struct Tally(Vec<(Vec<u8>, u32)>);

impl Tally {
    /// Counts `replica`'s reply. Once some result has `quorum` votes,
    /// returns it with the number of replies that disagreed with it. A
    /// replica votes once per request; its repeats are ignored.
    pub fn vote(
        &mut self,
        replica: usize,
        result: Vec<u8>,
        quorum: usize,
    ) -> Option<(Vec<u8>, u64)> {
        let bit = 1u32 << replica;
        if self.0.iter().any(|(_, mask)| mask & bit != 0) {
            return None;
        }
        let entry = match self.0.iter().position(|(r, _)| *r == result) {
            Some(i) => i,
            None => {
                self.0.push((result, 0));
                self.0.len() - 1
            }
        };
        self.0[entry].1 |= bit;
        if (self.0[entry].1.count_ones() as usize) < quorum {
            return None;
        }
        let dissent = self
            .0
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != entry)
            .map(|(_, (_, mask))| u64::from(mask.count_ones()))
            .sum();
        Some((self.0.swap_remove(entry).0, dissent))
    }
}

struct Client {
    id: u64,
    next_seq: u64,
    slots: Vec<Slot>,
    in_flight: Option<InFlight>,
    /// The last completed `(seq, quorum result)`: late replies are compared
    /// against it.
    last_done: Option<(u64, Vec<u8>)>,
    /// Out of inputs, or its last operation failed (its state is no longer
    /// known, so it sends nothing more).
    retired: bool,
    /// When the client last became free (closed-loop lateness origin).
    freed_at: Instant,
}

/// Client-side counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientCounters {
    pub retransmits: u64,
    pub replies: u64,
    pub divergent: u64,
}

/// The generator: closed loop (`rate == None`) or open loop.
pub struct Generator {
    addrs: Vec<SocketAddr>,
    quorum: usize,
    clients: Vec<Client>,
    free: VecDeque<usize>,
    source: OpSource,
    rate: Option<f64>,
    origin: Instant,
    next_op: u64,
    /// Open loop: released operations waiting for a free client.
    queue: VecDeque<(u64, Instant)>,
    send_until: Option<Instant>,
    pub records: Vec<OpRecord>,
    /// How late the generator sent work, in ms: open loop, release time
    /// minus due time; closed loop, send time minus the moment the client's
    /// previous operation completed.
    pub lateness_ms: Vec<f64>,
    pub counters: ClientCounters,
    key: FrameKey,
    fds: Vec<PollFd>,
    index: Vec<(usize, usize)>,
}

impl Generator {
    /// Connects `ids.len()` logical clients to every replica.
    ///
    /// # Errors
    ///
    /// Fails when an address does not parse or a first dial is refused.
    pub fn connect(
        addrs: &[String],
        quorum: usize,
        ids: &[u64],
        rate: Option<f64>,
        source: OpSource,
    ) -> io::Result<Generator> {
        let addrs: Vec<SocketAddr> = addrs
            .iter()
            .map(|a| {
                a.parse()
                    .map_err(|_| io::Error::other("bad replica address"))
            })
            .collect::<io::Result<_>>()?;
        let now = Instant::now();
        let mut clients = Vec::with_capacity(ids.len());
        for &id in ids {
            let mut slots = Vec::with_capacity(addrs.len());
            for addr in &addrs {
                slots.push(Slot {
                    conn: Some(dial(addr, id)?),
                    next_dial: now,
                });
            }
            clients.push(Client {
                id,
                next_seq: 1,
                slots,
                in_flight: None,
                last_done: None,
                retired: false,
                freed_at: now,
            });
        }
        Ok(Generator {
            addrs,
            quorum,
            free: (0..clients.len()).collect(),
            clients,
            source,
            rate,
            origin: now,
            next_op: 0,
            queue: VecDeque::new(),
            // Nothing is sent before `start`.
            send_until: Some(now),
            records: Vec::new(),
            lateness_ms: Vec::new(),
            counters: ClientCounters::default(),
            key: FrameKey::client(),
            fds: Vec::new(),
            index: Vec::new(),
        })
    }

    /// Runs one operation on client 0 and waits for it (cluster warm-up
    /// during set-up). Returns whether it completed correctly.
    pub fn run_one(&mut self, timeout: Duration) -> bool {
        let before = self.records.len();
        self.free.retain(|&c| c != 0);
        self.send_op(0, u64::MAX, Instant::now());
        let deadline = Instant::now() + timeout;
        while self.records.len() == before && Instant::now() < deadline {
            self.step(Duration::from_millis(5));
        }
        let ok = self.records.get(before).is_some_and(|r| r.ok);
        self.records.truncate(before);
        ok
    }

    /// Starts the workload: the open-loop schedule begins now.
    pub fn start(&mut self) {
        self.origin = Instant::now();
        self.next_op = 0;
        self.send_until = None;
        for client in &mut self.clients {
            client.freed_at = self.origin;
        }
    }

    /// No operation starts at or after `at` (queued ones still go out).
    pub fn stop_sending_at(&mut self, at: Instant) {
        self.send_until = Some(at);
    }

    /// Whether nothing is queued or in flight.
    pub fn idle(&self) -> bool {
        self.queue.is_empty() && self.clients.iter().all(|c| c.in_flight.is_none())
    }

    fn may_send(&self, at: Instant) -> bool {
        self.send_until.is_none_or(|stop| at < stop)
    }

    fn due(&self, op: u64) -> Option<Instant> {
        self.rate
            .map(|rate| self.origin + Duration::from_secs_f64(op as f64 / rate))
    }

    /// One generator round: release due requests, hand them to free
    /// clients, time out / retransmit / redial, then wait at most
    /// `max_wait` for replies and process them.
    pub fn step(&mut self, max_wait: Duration) {
        let now = Instant::now();
        // Release every request due by now.
        while let Some(due) = self.due(self.next_op).filter(|&d| d <= now) {
            if !self.may_send(due) {
                break;
            }
            self.lateness_ms
                .push(now.duration_since(due).as_secs_f64() * 1e3);
            self.queue.push_back((self.next_op, due));
            self.next_op += 1;
        }
        // Hand work to free clients.
        while let Some(&ci) = self.free.front() {
            let (op, start) = match self.rate {
                Some(_) => match self.queue.pop_front() {
                    Some(next) => next,
                    None => break,
                },
                None if self.may_send(now) => {
                    let freed_at = self.clients[ci].freed_at;
                    self.lateness_ms
                        .push(now.saturating_duration_since(freed_at).as_secs_f64() * 1e3);
                    self.next_op += 1;
                    (self.next_op - 1, now)
                }
                None => break,
            };
            self.free.pop_front();
            self.send_op(ci, op, start);
        }
        // Timeouts, retransmissions, redials.
        let mut wake = now + max_wait;
        if let Some(due) = self.due(self.next_op).filter(|&d| self.may_send(d)) {
            wake = wake.min(due);
        }
        for ci in 0..self.clients.len() {
            let client = &mut self.clients[ci];
            for (ri, slot) in client.slots.iter_mut().enumerate() {
                if slot.conn.is_some() {
                    continue;
                }
                if now >= slot.next_dial {
                    slot.next_dial = now + REDIAL;
                    if let Ok(mut conn) = dial(&self.addrs[ri], client.id) {
                        if let Some(f) = &client.in_flight {
                            conn.wq.push(f.frame.clone());
                        }
                        slot.conn = Some(conn);
                    }
                }
                wake = wake.min(slot.next_dial);
            }
            let Some(f) = &mut client.in_flight else {
                continue;
            };
            if now.duration_since(f.start) >= OP_TIMEOUT {
                let record = OpRecord {
                    start: f.start,
                    sent: f.sent,
                    done: now,
                    ok: false,
                };
                self.records.push(record);
                client.in_flight = None;
                client.retired = true;
                continue;
            }
            if now.duration_since(f.last_sent) >= RETRANSMIT {
                f.last_sent = now;
                self.counters.retransmits += 1;
                for conn in client.slots.iter_mut().filter_map(|s| s.conn.as_mut()) {
                    conn.wq.push(f.frame.clone());
                }
            }
            wake = wake.min(f.last_sent + RETRANSMIT);
        }
        self.poll(wake);
    }

    fn send_op(&mut self, ci: usize, op: u64, start: Instant) {
        let client = &mut self.clients[ci];
        let Some((request, expected)) = (self.source)(ci, client.id, client.next_seq, op) else {
            client.retired = true;
            return;
        };
        client.next_seq += 1;
        let mut frame = Vec::new();
        if encode_frame_into(&mut frame, &self.key, &SmrMsg::Request(request.clone())).is_err() {
            client.retired = true;
            return;
        }
        let now = Instant::now();
        for conn in client.slots.iter_mut().filter_map(|s| s.conn.as_mut()) {
            conn.wq.push(frame.clone());
        }
        client.in_flight = Some(InFlight {
            seq: request.seq,
            expected,
            frame,
            start,
            sent: now,
            last_sent: now,
            tally: Tally::default(),
        });
    }

    fn poll(&mut self, wake: Instant) {
        self.fds.clear();
        self.index.clear();
        for (ci, client) in self.clients.iter_mut().enumerate() {
            for (ri, slot) in client.slots.iter_mut().enumerate() {
                let Some(conn) = &mut slot.conn else { continue };
                if !conn.wq.is_empty() && conn.wq.drain(&mut conn.stream).is_err() {
                    slot.conn = None;
                    continue;
                }
                let events = POLLIN | if conn.wq.is_empty() { 0 } else { POLLOUT };
                self.fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                self.index.push((ci, ri));
            }
        }
        let timeout = wake.saturating_duration_since(Instant::now());
        if ppoll_wait(&mut self.fds, timeout).unwrap_or(0) == 0 {
            return;
        }
        let mut replies: Vec<(usize, usize, Reply)> = Vec::new();
        for (fd, &(ci, ri)) in self.fds.iter().zip(&self.index) {
            if fd.revents == 0 {
                continue;
            }
            let slot = &mut self.clients[ci].slots[ri];
            let Some(conn) = &mut slot.conn else { continue };
            let mut drop_conn = false;
            if fd.revents & POLLOUT != 0 && conn.wq.drain(&mut conn.stream).is_err() {
                drop_conn = true;
            }
            if !drop_conn && fd.revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                drop_conn = conn
                    .reader
                    .fill(&mut conn.stream)
                    .map_or(true, |(_, eof)| eof);
                while let Ok(Some((tag, payload))) = conn.reader.next_frame() {
                    if !self.key.verify(&payload, &tag) {
                        continue;
                    }
                    if let Ok(SmrMsg::Reply(reply)) = from_bytes::<SmrMsg>(&payload) {
                        replies.push((ci, ri, reply));
                    }
                }
            }
            if drop_conn {
                slot.conn = None;
                slot.next_dial = Instant::now() + REDIAL;
            }
        }
        let now = Instant::now();
        for (ci, ri, reply) in replies {
            self.tally(ci, ri, reply, now);
        }
    }

    fn tally(&mut self, ci: usize, replica: usize, reply: Reply, now: Instant) {
        let client = &mut self.clients[ci];
        if reply.client != client.id {
            return;
        }
        if let Some((seq, result)) = &client.last_done {
            if reply.seq == *seq {
                self.counters.replies += 1;
                if reply.result != *result {
                    self.counters.divergent += 1;
                }
                return;
            }
        }
        let Some(f) = &mut client.in_flight else {
            return;
        };
        if reply.seq != f.seq {
            return;
        }
        self.counters.replies += 1;
        let Some((result, dissent)) = f.tally.vote(replica, reply.result, self.quorum) else {
            return;
        };
        let f = client.in_flight.take().expect("checked above");
        let ok = check(&f.expected, &result);
        self.counters.divergent += dissent;
        self.records.push(OpRecord {
            start: f.start,
            sent: f.sent,
            done: now,
            ok,
        });
        client.last_done = Some((f.seq, result));
        if ok {
            client.freed_at = now;
            self.free.push_back(ci);
        } else {
            client.retired = true;
        }
    }
}

fn dial(addr: &SocketAddr, client: u64) -> io::Result<Conn> {
    let mut stream = TcpStream::connect_timeout(addr, Duration::from_millis(200))?;
    stream.set_nodelay(true)?;
    write_client_hello(&mut stream, client)?;
    stream.set_nonblocking(true)?;
    Ok(Conn {
        stream,
        reader: FrameReader::new(),
        wq: WriteQueue::new(1024),
    })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// `poll(2)` with a nanosecond timeout: `poll` rounds to whole
/// milliseconds, which at 1000 requests/s would make the generator up to a
/// full inter-arrival gap late.
fn ppoll_wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `PollFd` is `#[repr(C)]` and layout-compatible with `struct
    // pollfd`; the pointer and length describe the live slice `fds`, the
    // timespec outlives the call, and a null signal mask means "unchanged".
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_forged_reply_neither_completes_nor_hides() {
        let honest = 7u64.to_le_bytes().to_vec();
        let forged = 8u64.to_le_bytes().to_vec();
        let mut tally = Tally::default();
        // One Byzantine replica cannot reach the f+1 = 2 quorum alone, even
        // by repeating itself.
        assert_eq!(tally.vote(3, forged.clone(), 2), None);
        assert_eq!(tally.vote(3, forged.clone(), 2), None);
        assert_eq!(tally.vote(0, honest.clone(), 2), None);
        // The honest result completes; the forged reply counts as divergent.
        assert_eq!(tally.vote(1, honest.clone(), 2), Some((honest, 1)));
    }

    #[test]
    fn agreeing_replies_complete_without_dissent() {
        let mut tally = Tally::default();
        assert_eq!(tally.vote(2, vec![1], 2), None);
        assert_eq!(tally.vote(0, vec![1], 2), Some((vec![1], 0)));
    }
}
