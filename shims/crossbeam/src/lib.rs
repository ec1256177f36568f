//! Offline stand-in for the `crossbeam` crate.
//!
//! The build environment cannot reach a crates.io registry, so this shim
//! provides the subset of `crossbeam::channel` the workspace uses — an
//! unbounded MPSC channel with `send` / `try_recv` / `recv` — implemented
//! over `std::sync::mpsc`. The acceptor/worker handoff in `nioserver` is
//! strictly single-producer single-consumer per channel, so std's channel
//! is a faithful replacement.

pub mod channel {
    pub use std::sync::mpsc::{RecvError, SendError, TryRecvError};

    /// Sending half of an unbounded channel.
    pub struct Sender<T> {
        inner: std::sync::mpsc::Sender<T>,
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner.send(value)
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    /// Receiving half of an unbounded channel.
    pub struct Receiver<T> {
        inner: std::sync::mpsc::Receiver<T>,
    }

    impl<T> Receiver<T> {
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner.try_recv()
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner.recv()
        }
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (Sender { inner: tx }, Receiver { inner: rx })
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn send_try_recv_round_trip() {
        let (tx, rx) = channel::unbounded::<u32>();
        assert!(matches!(rx.try_recv(), Err(channel::TryRecvError::Empty)));
        tx.send(7).unwrap();
        tx.send(8).unwrap();
        assert_eq!(rx.try_recv().unwrap(), 7);
        assert_eq!(rx.try_recv().unwrap(), 8);
    }

    #[test]
    fn disconnect_is_visible() {
        let (tx, rx) = channel::unbounded::<u32>();
        drop(tx);
        assert!(matches!(
            rx.try_recv(),
            Err(channel::TryRecvError::Disconnected)
        ));
    }

    #[test]
    fn cross_thread_handoff() {
        let (tx, rx) = channel::unbounded::<u32>();
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        h.join().unwrap();
        let mut got = Vec::new();
        while let Ok(v) = rx.try_recv() {
            got.push(v);
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
