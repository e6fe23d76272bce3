//! Wire-size accounting for message payloads.
//!
//! Every byte that enters a `CommStats` ledger or a trace event comes
//! from one place: a payload's [`WirePayload::payload_bytes`]. The
//! runtime sends only `WirePayload` types, and dense matrices, shared
//! panels, sparse CSR buffers and the simulator's phantom stand-ins all
//! implement the hook, so both substrates count traffic through
//! identical code.
//!
//! The trait lives in `hsumma-trace` (the dependency-free base crate)
//! so the matrix, runtime, simulator and sparse crates can all implement
//! it without dependency cycles.

use std::sync::Arc;

/// The number of bytes a value occupies on the wire.
///
/// For dense payloads this is a pure function of shape; for sparse
/// payloads it depends on `nnz` — which is exactly why the accounting
/// must ask the payload instead of recomputing from shape at call sites.
pub trait WirePayload {
    /// Serialized size of this payload in bytes.
    fn payload_bytes(&self) -> u64;
}

/// Raw `f64` buffers (collective segments, gathered tiles).
impl WirePayload for Vec<f64> {
    fn payload_bytes(&self) -> u64 {
        (self.len() * 8) as u64
    }
}

/// Scalars and the unit token are control words: like a tag, or the
/// routing index of `(T, usize)` below, they ride in the envelope. The
/// α of Hockney's `α + m·β` prices them; they add nothing to `m`.
macro_rules! control_words {
    ($($t:ty),*) => {$(
        impl WirePayload for $t {
            fn payload_bytes(&self) -> u64 {
                0
            }
        }
    )*};
}

control_words!((), u8, u32, u64, usize, f64);

/// Shared payloads ship the pointee's bytes; the `Arc` itself is free.
impl<T: WirePayload + ?Sized> WirePayload for Arc<T> {
    fn payload_bytes(&self) -> u64 {
        (**self).payload_bytes()
    }
}

/// Optional payloads: `None` moves nothing.
impl<T: WirePayload> WirePayload for Option<T> {
    fn payload_bytes(&self) -> u64 {
        self.as_ref().map_or(0, WirePayload::payload_bytes)
    }
}

/// A payload with a routing index rides the payload's bytes (the index
/// travels in the envelope, like a tag).
impl<T: WirePayload> WirePayload for (T, usize) {
    fn payload_bytes(&self) -> u64 {
        self.0.payload_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_bytes_are_len_times_eight() {
        assert_eq!(vec![0.0f64; 5].payload_bytes(), 40);
        assert_eq!(Vec::<f64>::new().payload_bytes(), 0);
    }

    #[test]
    fn wrappers_delegate_to_the_pointee() {
        let v = Arc::new(vec![0.0f64; 3]);
        assert_eq!(v.payload_bytes(), 24);
        assert_eq!(Some(Arc::clone(&v)).payload_bytes(), 24);
        assert_eq!(None::<Arc<Vec<f64>>>.payload_bytes(), 0);
        assert_eq!((Arc::clone(&v), 7usize).payload_bytes(), 24);
    }

    #[test]
    fn control_words_are_free() {
        assert_eq!(().payload_bytes(), 0);
        assert_eq!(7u64.payload_bytes(), 0);
        assert_eq!(2.5f64.payload_bytes(), 0);
    }
}
