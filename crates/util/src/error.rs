//! The workspace-wide error type.
//!
//! The distributed driver threads failures from three layers through one
//! enum: octree/shard lookups, parcelport transport and codec paths, and
//! the driver's own phase logic. Fallible APIs (`Cluster::try_build`,
//! `Locality::try_send`, `DistributedDriver::step`) return
//! [`Result`] with this type so later fault-tolerance work (retry,
//! locality fail-over) has a seam instead of a `panic!`.

/// Workspace result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// An error from the octree, parcelport, or driver layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A parcel or call targeted a locality outside the cluster.
    BadLocality {
        /// The requested locality index.
        index: u32,
        /// Number of localities in the cluster.
        count: usize,
    },
    /// Payload (de)serialization failed.
    Codec(String),
    /// A parcel named an action id with no registered handler.
    UnknownAction(u32),
    /// An octree / shard-map invariant failed (missing leaf, bad
    /// partition, ...).
    Octree(String),
    /// A driver phase failed (missing grid, non-finite dt, ...).
    Driver(String),
    /// A locality crashed (or was declared dead by the reliable
    /// delivery layer after its retry budget ran out). The run can be
    /// continued from the latest checkpoint on a fresh cluster.
    LocalityCrashed(u32),
    /// A checkpoint could not be written, decoded, or verified
    /// (version mismatch, digest mismatch, truncation, ...).
    Checkpoint(String),
    /// A performance-model input was invalid (empty calibration trace,
    /// zero localities, ...).
    Model(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::BadLocality { index, count } => {
                write!(f, "locality {index} out of range (cluster has {count})")
            }
            Error::Codec(msg) => write!(f, "codec failure: {msg}"),
            Error::UnknownAction(id) => write!(f, "unknown action id {id}"),
            Error::Octree(msg) => write!(f, "octree error: {msg}"),
            Error::Driver(msg) => write!(f, "driver error: {msg}"),
            Error::LocalityCrashed(loc) => write!(f, "locality {loc} crashed"),
            Error::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            Error::Model(msg) => write!(f, "performance-model error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<serde::CodecError> for Error {
    fn from(e: serde::CodecError) -> Error {
        Error::Codec(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = Error::BadLocality { index: 7, count: 4 };
        assert!(e.to_string().contains("locality 7"));
        assert!(e.to_string().contains('4'));
        assert!(Error::UnknownAction(9).to_string().contains('9'));
        assert!(Error::Codec("short read".into()).to_string().contains("short read"));
        assert!(Error::Octree("no leaf".into()).to_string().contains("no leaf"));
        assert!(Error::Driver("bad dt".into()).to_string().contains("bad dt"));
        assert!(Error::LocalityCrashed(3).to_string().contains("locality 3"));
        assert!(Error::Checkpoint("bad digest".into()).to_string().contains("bad digest"));
    }

    #[test]
    fn codec_error_converts() {
        let c = serde::CodecError::Invalid("boom".into());
        let e: Error = c.into();
        assert!(matches!(e, Error::Codec(_)));
    }
}
