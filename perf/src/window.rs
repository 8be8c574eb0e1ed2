//! The closed-loop window: what one load thread does next on one
//! pipelined connection.
//!
//! A closed loop keeps at most `w` requests outstanding; a reply frees
//! a slot for the next request. The generator is pure state (no I/O),
//! so its two invariants are unit-tested: never more than `w`
//! outstanding, never a read with nothing outstanding.

/// The next action of the load thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Send operation number `.0` (0-based, dense).
    Send(u64),
    /// Block for one reply.
    Recv,
}

#[derive(Clone, Debug)]
pub struct Window {
    w: u64,
    sent: u64,
    received: u64,
}

impl Window {
    pub fn new(w: u64) -> Self {
        assert!(w >= 1, "a window holds at least one request");
        Self {
            w,
            sent: 0,
            received: 0,
        }
    }

    pub fn outstanding(&self) -> u64 {
        self.sent - self.received
    }

    /// The next step. While `more` the window is kept full (sends take
    /// priority over reads); once `more` is false the loop only drains.
    /// `None` = drained and nothing more to send.
    pub fn next(&mut self, more: bool) -> Option<Step> {
        if more && self.outstanding() < self.w {
            self.sent += 1;
            Some(Step::Send(self.sent - 1))
        } else if self.outstanding() > 0 {
            self.received += 1;
            Some(Step::Recv)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(w: u64, total: u64) -> Vec<Step> {
        let mut win = Window::new(w);
        let mut steps = Vec::new();
        let mut sent = 0;
        while let Some(s) = win.next(sent < total) {
            if let Step::Send(_) = s {
                sent += 1;
            }
            steps.push(s);
        }
        steps
    }

    #[test]
    fn never_exceeds_the_window_and_never_reads_ahead_of_writes() {
        for (w, total) in [(1u64, 7u64), (64, 1000), (192, 1024), (192, 50)] {
            let (mut sent, mut recv, mut peak) = (0u64, 0u64, 0u64);
            for s in drive(w, total) {
                match s {
                    Step::Send(i) => {
                        assert_eq!(i, sent, "operations are issued densely in order");
                        sent += 1;
                    }
                    Step::Recv => {
                        assert!(recv < sent, "read with nothing outstanding");
                        recv += 1;
                    }
                }
                assert!(sent - recv <= w, "window overrun");
                peak = peak.max(sent - recv);
            }
            assert_eq!((sent, recv), (total, total), "every request answered");
            assert_eq!(peak, w.min(total), "the window actually fills");
        }
    }

    #[test]
    fn width_one_alternates() {
        let steps = drive(1, 3);
        assert_eq!(
            steps,
            [
                Step::Send(0),
                Step::Recv,
                Step::Send(1),
                Step::Recv,
                Step::Send(2),
                Step::Recv
            ]
        );
    }

    #[test]
    fn steady_state_keeps_the_window_full() {
        // After the initial fill every reply is followed by exactly one
        // send, so the server always sees `w` outstanding.
        let steps = drive(4, 20);
        for pair in steps[4..steps.len() - 4].chunks(2) {
            assert_eq!(pair[0], Step::Recv);
            assert!(matches!(pair[1], Step::Send(_)));
        }
    }
}
