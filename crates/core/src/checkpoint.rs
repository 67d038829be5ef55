//! Versioned, digest-protected checkpoints of the distributed driver.
//!
//! HPX's resilience APIs (`hpx::checkpoint`) serialize a set of
//! components into an opaque blob the application stores wherever it
//! likes and later hands back to resurrect the components. This module
//! is the same contract for [`crate::distributed::DistributedDriver`]:
//! the *global* simulation state — every shard's owned leaf grids
//! (interiors alone), plus the step/time bookkeeping and the
//! per-step dt history — is encoded with the wire codec (which
//! round-trips `f64` bit patterns exactly, so a restore is
//! bit-identical by construction), then sealed with a version word and
//! an FNV-1a-64 digest of the encoded body.
//!
//! The blob is deliberately *cluster-shape agnostic*: it stores leaves,
//! not shards. Restoring onto a cluster with a different locality count
//! (say, after losing a node) simply repartitions the same leaves over
//! the survivors — the shard re-adoption story — and stays bit-identical
//! because the distributed step is bit-identical at any locality count.

use bytes::Bytes;
use octree::subgrid::SubGrid;
use parcelport::serialize::{from_bytes, to_bytes};
use util::morton::MortonKey;
use util::{fnv1a64, Error, Result};

/// Current checkpoint format version. Bump on any layout change; a
/// mismatched version fails decode with [`Error::Checkpoint`] instead
/// of misinterpreting bytes.
pub const CHECKPOINT_VERSION: u32 = 2;

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
    /// Sub-grids processed (the paper's throughput metric).
    pub subgrids_processed: u64,
    /// dt of every completed step, in order.
    pub dt_history: Vec<f64>,
    /// Leaf keys, parallel to `interiors`.
    pub keys: Vec<MortonKey>,
    /// Per-leaf grids, in the tree's layout: the interior alone. The
    /// codec rejects one of the wrong length, so a sealed blob with a
    /// short interior fails [`decode`] instead of reaching a mirror.
    pub interiors: Vec<SubGrid>,
}

serde::impl_codec_struct!(CheckpointBody {
    version,
    steps,
    time,
    subgrids_processed,
    dt_history,
    keys,
    interiors
});

/// Encode `body` and seal it with its digest.
pub fn encode(body: &CheckpointBody) -> Result<Bytes> {
    Ok(seal(&to_bytes(body)?))
}

/// An encoded body followed by its digest.
fn seal(encoded: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(encoded.len() + DIGEST_BYTES);
    out.extend_from_slice(encoded);
    out.extend_from_slice(&fnv1a64(encoded).to_le_bytes());
    Bytes::from(out)
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
    // The version leads the body: read it first, so a blob of another
    // layout is reported as such rather than misread field by field.
    let version: u32 = from_bytes(&body)
        .map_err(|e| Error::Checkpoint(format!("version decode failed: {e}")))?;
    if version != CHECKPOINT_VERSION {
        return Err(Error::Checkpoint(format!(
            "version {version} unsupported (this build reads {CHECKPOINT_VERSION})"
        )));
    }
    let body: CheckpointBody = from_bytes(&body)
        .map_err(|e| Error::Checkpoint(format!("body decode failed: {e}")))?;
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
    use crate::{DistributedDriver, Scenario};
    use octree::subgrid::{Field, ALL_FIELDS};
    use parcelport::cluster::Cluster;
    use std::sync::Arc;

    fn sample() -> CheckpointBody {
        let mut a = SubGrid::new();
        a.set(Field::Rho, 0, 0, 0, 1.0);
        a.set(Field::Sx, 7, 0, 3, -0.0);
        a.set(Field::Atmosphere, 7, 7, 7, f64::MIN_POSITIVE);
        let mut b = SubGrid::new();
        b.field_mut(Field::Egas).fill(2.0);
        CheckpointBody {
            version: CHECKPOINT_VERSION,
            steps: 3,
            time: 0.125,
            subgrids_processed: 24,
            dt_history: vec![0.5, 0.25, 0.125],
            keys: vec![MortonKey::root().child(0), MortonKey::root().child(1)],
            interiors: vec![a, b],
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let body = sample();
        let blob = encode(&body).unwrap();
        let back = decode(&blob).unwrap();
        assert_eq!(back.steps, body.steps);
        assert_eq!(back.time.to_bits(), body.time.to_bits());
        assert_eq!(back.subgrids_processed, body.subgrids_processed);
        assert_eq!(back.keys, body.keys);
        assert_eq!(back.dt_history.len(), body.dt_history.len());
        for (a, b) in back.dt_history.iter().zip(&body.dt_history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.interiors.len(), body.interiors.len());
        for (a, b) in back.interiors.iter().zip(&body.interiors) {
            for f in ALL_FIELDS {
                for (x, y) in a.field(f).iter().zip(b.field(f)) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    /// [`CheckpointBody`]'s wire shape with each interior a plain
    /// vector, so a test can seal one of any length.
    struct LooseBody {
        version: u32,
        steps: u64,
        time: f64,
        subgrids_processed: u64,
        dt_history: Vec<f64>,
        keys: Vec<MortonKey>,
        interiors: Vec<Vec<f64>>,
    }

    serde::impl_codec_struct!(LooseBody {
        version,
        steps,
        time,
        subgrids_processed,
        dt_history,
        keys,
        interiors
    });

    /// A sealed checkpoint of a real run with one interior a cell short
    /// fails `restore` with a checkpoint error instead of panicking: the
    /// body's codec checks every interior's length.
    #[test]
    fn restore_rejects_an_interior_of_the_wrong_length() {
        let cluster = || Arc::new(Cluster::builder().threads_per(1).build());
        let mut dist = DistributedDriver::builder(Scenario::sod(1), cluster()).build().unwrap();
        dist.step().unwrap();
        let blob = dist.checkpoint().unwrap();
        let mut body: LooseBody = from_bytes(&blob.slice(..blob.len() - DIGEST_BYTES)).unwrap();
        // A leaf grid's bytes are its interior values: the loose shape
        // re-seals to the very same blob.
        assert_eq!(seal(&to_bytes(&body).unwrap()), blob);
        body.interiors[3].pop();
        let short = seal(&to_bytes(&body).unwrap());
        match DistributedDriver::restore(Scenario::sod(1), cluster(), &short) {
            Err(Error::Checkpoint(msg)) => assert!(msg.contains("sub-grid payload"), "{msg}"),
            Err(e) => panic!("expected a checkpoint error, got {e}"),
            Ok(_) => panic!("restored a checkpoint with a short interior"),
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
        for version in [CHECKPOINT_VERSION + 1, 1] {
            let mut body = sample();
            body.version = version;
            let blob = encode(&body).unwrap();
            let err = decode(&blob).unwrap_err();
            assert!(err.to_string().contains(&format!("version {version}")), "{err}");
        }
    }
}
