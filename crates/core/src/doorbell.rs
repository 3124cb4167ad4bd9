//! The wake-up another thread rings for a reactor whose machine source
//! ran dry.

use std::sync::atomic::{AtomicBool, Ordering};

/// What another thread rings to cut short the sleep of a reactor whose
/// machine source ran dry: the scan pipeline's feeder rings its workers'
/// bells after every name it queues. A reactor with nothing in flight that
/// finds its source empty ([`Admission::Later`](crate::Admission::Later))
/// marks its bell, asks the source once more, and then sleeps on its
/// socket and the bell; a ring wakes it at once. The second look is what
/// keeps a ring from being lost: a source that takes its names from a
/// locked queue either sees a name queued before that look, or its feeder,
/// having queued the name after it, sees the mark. A reactor with lookups
/// in flight does not mark its bell: their answers wake it, and it takes
/// what was queued meanwhile a batch at a time, not one name per wake-up.
///
/// A ring writes one octet, and only to a reactor that marked its bell
/// and has not been rung since; otherwise it is one atomic load, so a scan
/// whose workers always have lookups in flight pays no system call for
/// its bells.
pub struct Doorbell {
    /// Set by the reactor when its source ran dry; cleared by the ring
    /// that wakes it.
    starved: AtomicBool,
    /// The end [`Doorbell::ring`] writes to, and the end the reactor
    /// polls and reads.
    #[cfg(unix)]
    pub(crate) ends: (
        std::os::unix::net::UnixStream,
        std::os::unix::net::UnixStream,
    ),
}

impl Doorbell {
    /// A bell for [`Reactor::set_doorbell`](crate::Reactor::set_doorbell): a
    /// connected pair of non-blocking local sockets.
    pub fn new() -> std::io::Result<Doorbell> {
        #[cfg(unix)]
        let ends = {
            let (ring, wake) = std::os::unix::net::UnixStream::pair()?;
            ring.set_nonblocking(true)?;
            wake.set_nonblocking(true)?;
            (ring, wake)
        };
        Ok(Doorbell {
            starved: AtomicBool::new(false),
            #[cfg(unix)]
            ends,
        })
    }

    /// Wake the reactor if it is waiting for its source; returns whether
    /// it was.
    pub fn ring(&self) -> bool {
        if !(self.starved.load(Ordering::SeqCst) && self.starved.swap(false, Ordering::SeqCst)) {
            return false;
        }
        // A full socket buffer already holds a ring the reactor will read.
        #[cfg(unix)]
        let _ = std::io::Write::write(&mut &self.ends.0, &[1]);
        true
    }

    /// Mark the bell: the reactor's source ran dry. Returns whether it was
    /// marked already (and not rung since).
    pub(crate) fn mark_starved(&self) -> bool {
        self.starved.swap(true, Ordering::SeqCst)
    }

    /// Read away the rings that are waiting.
    pub(crate) fn silence(&self) {
        #[cfg(unix)]
        {
            let mut rings = [0u8; 64];
            while let Ok(n) = std::io::Read::read(&mut &self.ends.1, &mut rings) {
                if n < rings.len() {
                    break;
                }
            }
        }
    }
}
