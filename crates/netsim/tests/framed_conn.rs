//! `FramedConn` over a scripted in-memory stream: whatever way a
//! non-blocking socket may cut, stall or interrupt the octets, every whole
//! frame comes out exactly once and in order, a partial tail never does,
//! a fill never reads past its budget, and queued frames reach the stream
//! octet for octet.
//!
//! Seeds replay through `PROPTEST_SEED`.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};

use proptest::collection::vec;
use proptest::prelude::*;
use zdns_netsim::FramedConn;

/// What the next `read` or `write` on the scripted stream does.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Move at most this many octets.
    Move(usize),
    WouldBlock,
    Interrupted,
    /// Fail for good.
    Reset,
}

/// A stream that follows a script. Reads hand out `inbound` in the pieces
/// the read script says and report end-of-stream once it is gone; writes
/// land in `written`, likewise cut by the write script. A finished script
/// moves everything it is offered.
#[derive(Default)]
struct Scripted {
    inbound: VecDeque<u8>,
    reads: VecDeque<Step>,
    writes: VecDeque<Step>,
    written: Vec<u8>,
    /// Octets reads have handed out so far.
    handed: usize,
}

impl Step {
    /// How many of `offered` octets this step moves, or its error.
    fn allow(self, offered: usize) -> std::io::Result<usize> {
        match self {
            Step::Move(most) => Ok(most.min(offered)),
            Step::WouldBlock => Err(ErrorKind::WouldBlock.into()),
            Step::Interrupted => Err(ErrorKind::Interrupted.into()),
            Step::Reset => Err(ErrorKind::ConnectionReset.into()),
        }
    }
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.inbound.is_empty() {
            return Ok(0);
        }
        let step = self.reads.pop_front().unwrap_or(Step::Move(usize::MAX));
        let n = step.allow(buf.len().min(self.inbound.len()))?;
        for (slot, octet) in buf.iter_mut().zip(self.inbound.drain(..n)) {
            *slot = octet;
        }
        self.handed += n;
        Ok(n)
    }
}

impl Write for Scripted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let step = self.writes.pop_front().unwrap_or(Step::Move(usize::MAX));
        let n = step.allow(buf.len())?;
        self.written.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `bodies` as the wire carries them: each behind its 2-octet length.
fn framed(bodies: &[Vec<u8>]) -> Vec<u8> {
    let mut wire = Vec::new();
    for body in bodies {
        wire.extend_from_slice(&(body.len() as u16).to_be_bytes());
        wire.extend_from_slice(body);
    }
    wire
}

/// Fill and take frames until the stream ends; every fill gets the next
/// budget (cycled) and is held to it.
fn read_to_end(conn: &mut FramedConn<Scripted>, budgets: &[usize]) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    let mut budgets = budgets.iter().copied().cycle();
    // A script stalls at most once per step; anything longer is a hang.
    for _ in 0..1_000_000 {
        let budget = budgets.next().unwrap();
        let handed_before = conn.get_ref().handed;
        let n = conn.fill(budget).expect("the script has no hard errors");
        assert!(n <= budget, "fill({budget}) returned {n}");
        assert_eq!(
            conn.get_ref().handed - handed_before,
            n,
            "fill took octets it did not report"
        );
        while let Some(frame) = conn.frame() {
            got.push(frame.to_vec());
            conn.consume();
        }
        if conn.peer_closed() {
            return got;
        }
    }
    panic!("the stream never ended");
}

/// Frame bodies: mostly small, with the edge lengths — empty, one octet,
/// and the longest a prefix can say — mixed in.
fn bodies() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let body = prop_oneof![
        Just(0usize),
        Just(1usize),
        0usize..=600,
        0usize..=600,
        Just(65_535usize),
    ]
    .prop_map(|len| (0..len).map(|i| (i * 31 + len) as u8).collect::<Vec<u8>>());
    vec(body, 0..=6)
}

/// Socket behaviour: short moves (one octet included), stalls, signals.
fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        Just(Step::Move(1)),
        (1usize..=9).prop_map(Step::Move),
        (1usize..=5_000).prop_map(Step::Move),
        Just(Step::WouldBlock),
        Just(Step::Interrupted),
    ];
    vec(step, 0..=400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn whole_frames_arrive_once_in_order_and_a_partial_tail_never(
        sent in bodies(),
        reads in steps(),
        // Where the peer closes: anywhere in the stream, or after it all.
        cut in any::<prop::sample::Index>(),
        close_mid_frame in any::<bool>(),
        budgets in vec(prop_oneof![1usize..=8, 1usize..=70_000], 1..=8),
    ) {
        let wire = framed(&sent);
        let kept = if close_mid_frame { cut.index(wire.len() + 1) } else { wire.len() };
        // The frames that end at or before the cut are the whole ones.
        let mut whole = Vec::new();
        let mut end = 0;
        for body in &sent {
            end += 2 + body.len();
            if end <= kept {
                whole.push(body.clone());
            }
        }
        let stream = Scripted {
            inbound: wire[..kept].iter().copied().collect(),
            reads: reads.into(),
            ..Scripted::default()
        };
        let mut conn = FramedConn::new(stream);
        let got = read_to_end(&mut conn, &budgets);
        prop_assert_eq!(got.len(), whole.len());
        prop_assert!(got == whole, "frames differ from what was sent");
        prop_assert!(conn.frame().is_none());
    }

    #[test]
    fn queued_frames_reach_the_stream_octet_for_octet(
        sent in bodies(),
        writes in steps(),
        // Frames are queued a few at a time, with flushes in between.
        batch in 1usize..=3,
    ) {
        let stream = Scripted { writes: writes.into(), ..Scripted::default() };
        let mut conn = FramedConn::new(stream);
        prop_assert!(conn.is_flushed());
        for group in sent.chunks(batch) {
            for body in group {
                conn.queue_frame(body);
            }
            let before = conn.get_ref().written.len();
            let wrote = conn.flush().expect("the script has no hard errors");
            prop_assert_eq!(conn.get_ref().written.len() - before, wrote);
        }
        for _ in 0..1_000 {
            if conn.is_flushed() {
                break;
            }
            conn.flush().expect("the script has no hard errors");
        }
        prop_assert!(conn.is_flushed(), "a finite script stalled the flush for good");
        prop_assert!(conn.get_ref().written == framed(&sent), "stream differs from the frames");
    }
}

#[test]
fn frames_torn_at_every_octet_boundary_come_out_whole() {
    let sent = vec![b"first".to_vec(), Vec::new(), b"third frame".to_vec()];
    let wire = framed(&sent);
    for tear in 1..wire.len() {
        let stream = Scripted {
            inbound: wire.iter().copied().collect(),
            reads: [Step::Move(tear), Step::WouldBlock].into(),
            ..Scripted::default()
        };
        let got = read_to_end(&mut FramedConn::new(stream), &[usize::MAX]);
        assert_eq!(got, sent, "tear at {tear}");
    }
}

#[test]
fn a_stream_that_takes_nothing_or_fails_is_an_error() {
    for (step, kind) in [
        (Step::Move(0), ErrorKind::WriteZero),
        (Step::Reset, ErrorKind::ConnectionReset),
    ] {
        let mut conn = FramedConn::new(Scripted {
            writes: [step].into(),
            ..Scripted::default()
        });
        conn.queue_frame(b"x");
        assert_eq!(conn.flush().unwrap_err().kind(), kind);
        assert!(!conn.is_flushed());
    }
    let mut conn = FramedConn::new(Scripted {
        inbound: [0].into(),
        reads: [Step::Reset].into(),
        ..Scripted::default()
    });
    assert_eq!(
        conn.fill(64).unwrap_err().kind(),
        ErrorKind::ConnectionReset
    );
    assert!(!conn.peer_closed() && conn.frame().is_none());
}
