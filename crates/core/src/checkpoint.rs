//! Versioned, digest-protected checkpoints of the distributed driver.
//!
//! HPX's resilience APIs (`hpx::checkpoint`) serialize a set of
//! components into an opaque blob the application stores wherever it
//! likes and later hands back to resurrect the components. This module
//! is the same contract for [`crate::distributed::DistributedDriver`]:
//! the *global* simulation state — every shard's owned leaf interiors,
//! plus the step/time/seq bookkeeping and the per-step dt history — is
//! encoded with the wire codec (which round-trips `f64` bit patterns
//! exactly, so a restore is bit-identical by construction), then sealed
//! with a version word and an FNV-1a-64 digest of the encoded body.
//!
//! The blob is deliberately *cluster-shape agnostic*: it stores leaves,
//! not shards. Restoring onto a cluster with a different locality count
//! (say, after losing a node) simply repartitions the same leaves over
//! the survivors — the shard re-adoption story — and stays bit-identical
//! because the distributed step is bit-identical at any locality count.

use bytes::Bytes;
use parcelport::serialize::{from_bytes, to_bytes};
use util::morton::MortonKey;
use util::{fnv1a64, Error, Result};

/// Current checkpoint format version. Bump on any layout change; a
/// mismatched version fails decode with [`Error::Checkpoint`] instead
/// of misinterpreting bytes.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Bytes of the FNV-1a-64 digest trailing the encoded body.
const DIGEST_BYTES: usize = 8;

/// The decoded checkpoint payload.
#[derive(Debug)]
pub struct CheckpointBody {
    /// Format version ([`CHECKPOINT_VERSION`] at write time).
    pub version: u32,
    /// Steps taken when the checkpoint was cut.
    pub steps: u64,
    /// Simulated time (code units).
    pub time: f64,
    /// Collectives sequence counter (reduction/barrier ids continue
    /// from here after a restore).
    pub seq: u64,
    /// Sub-grids processed (the paper's throughput metric).
    pub subgrids_processed: u64,
    /// dt of every completed step, in order.
    pub dt_history: Vec<f64>,
    /// Leaf keys, parallel to `interiors`.
    pub keys: Vec<MortonKey>,
    /// Per-leaf interior cells in `SubGrid::extract_interior` layout.
    pub interiors: Vec<Vec<f64>>,
}

serde::impl_codec_struct!(CheckpointBody {
    version,
    steps,
    time,
    seq,
    subgrids_processed,
    dt_history,
    keys,
    interiors
});

/// Encode `body` and seal it with its digest.
pub fn encode(body: &CheckpointBody) -> Result<Bytes> {
    let encoded = to_bytes(body)?;
    let mut out = Vec::with_capacity(encoded.len() + DIGEST_BYTES);
    out.extend_from_slice(&encoded);
    out.extend_from_slice(&fnv1a64(&encoded).to_le_bytes());
    Ok(Bytes::from(out))
}

/// Verify the digest and version of `bytes` and decode the body.
pub fn decode(bytes: &Bytes) -> Result<CheckpointBody> {
    if bytes.len() < DIGEST_BYTES {
        return Err(Error::Checkpoint(format!(
            "truncated: {} bytes cannot hold a digest",
            bytes.len()
        )));
    }
    let split = bytes.len() - DIGEST_BYTES;
    let body = bytes.slice(0..split);
    let mut stored = [0u8; DIGEST_BYTES];
    stored.copy_from_slice(&bytes[split..]);
    let stored = u64::from_le_bytes(stored);
    let computed = fnv1a64(&body);
    if stored != computed {
        return Err(Error::Checkpoint(format!(
            "digest mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    let body: CheckpointBody = from_bytes(&body)
        .map_err(|e| Error::Checkpoint(format!("body decode failed: {e}")))?;
    if body.version != CHECKPOINT_VERSION {
        return Err(Error::Checkpoint(format!(
            "version {} unsupported (this build reads {})",
            body.version, CHECKPOINT_VERSION
        )));
    }
    if body.keys.len() != body.interiors.len() {
        return Err(Error::Checkpoint(format!(
            "{} keys but {} interiors",
            body.keys.len(),
            body.interiors.len()
        )));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointBody {
        CheckpointBody {
            version: CHECKPOINT_VERSION,
            steps: 3,
            time: 0.125,
            seq: 9,
            subgrids_processed: 24,
            dt_history: vec![0.5, 0.25, 0.125],
            keys: vec![MortonKey::root().child(0), MortonKey::root().child(1)],
            interiors: vec![vec![1.0, -0.0, f64::MIN_POSITIVE], vec![2.0; 4]],
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let body = sample();
        let blob = encode(&body).unwrap();
        let back = decode(&blob).unwrap();
        assert_eq!(back.steps, body.steps);
        assert_eq!(back.time.to_bits(), body.time.to_bits());
        assert_eq!(back.seq, body.seq);
        assert_eq!(back.subgrids_processed, body.subgrids_processed);
        assert_eq!(back.keys, body.keys);
        assert_eq!(back.dt_history.len(), body.dt_history.len());
        for (a, b) in back.dt_history.iter().zip(&body.dt_history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in back.interiors.iter().zip(&body.interiors) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn corruption_is_detected() {
        let blob = encode(&sample()).unwrap();
        for flip in [0, blob.len() / 2, blob.len() - 1] {
            let mut bad = blob.to_vec();
            bad[flip] ^= 0x40;
            let err = decode(&Bytes::from(bad)).unwrap_err();
            assert!(
                matches!(err, Error::Checkpoint(_)),
                "flip at {flip} must fail the digest or decode: {err}"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let blob = encode(&sample()).unwrap();
        for cut in [0usize, 4, blob.len() - 1] {
            let err = decode(&blob.slice(0..cut.min(blob.len()))).unwrap_err();
            assert!(matches!(err, Error::Checkpoint(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn future_version_is_rejected() {
        let mut body = sample();
        body.version = CHECKPOINT_VERSION + 1;
        let blob = encode(&body).unwrap();
        let err = decode(&blob).unwrap_err();
        assert!(err.to_string().contains("version"));
    }
}
