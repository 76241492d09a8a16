//! Error type for the dynamic-resolution pipeline.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Error raised by pipeline construction, calibration, training, or inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoreError {
    /// An image-processing step failed.
    Imaging(String),
    /// The progressive codec failed.
    Codec(String),
    /// A model/architecture operation failed.
    Model(String),
    /// The configuration is inconsistent (empty resolution set, bad thresholds, …).
    InvalidConfig {
        /// Explanation of the defect.
        reason: String,
    },
    /// A dataset required for training or calibration was empty.
    EmptyDataset,
    /// A request's plan/execute stage panicked and was isolated to this record
    /// (the panic never escapes the serving layer's admission core, which
    /// every scheduler and the server drain through).
    Panicked {
        /// The rendered panic payload.
        message: String,
    },
    /// The request's execution was cooperatively cancelled before or during
    /// its run (watchdog overrun, superseded work); no result was produced and
    /// any partially-computed data was discarded.
    Cancelled {
        /// Why the execution was cancelled.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Imaging(msg) => write!(f, "imaging error: {msg}"),
            CoreError::Codec(msg) => write!(f, "codec error: {msg}"),
            CoreError::Model(msg) => write!(f, "model error: {msg}"),
            CoreError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            CoreError::EmptyDataset => write!(f, "dataset must contain at least one sample"),
            CoreError::Panicked { message } => write!(f, "request panicked: {message}"),
            CoreError::Cancelled { reason } => write!(f, "request cancelled: {reason}"),
        }
    }
}

impl Error for CoreError {}

impl From<rescnn_imaging::ImagingError> for CoreError {
    fn from(err: rescnn_imaging::ImagingError) -> Self {
        CoreError::Imaging(err.to_string())
    }
}

impl From<rescnn_projpeg::CodecError> for CoreError {
    fn from(err: rescnn_projpeg::CodecError) -> Self {
        CoreError::Codec(err.to_string())
    }
}

impl From<rescnn_models::ModelError> for CoreError {
    fn from(err: rescnn_models::ModelError) -> Self {
        CoreError::Model(err.to_string())
    }
}

impl From<rescnn_hwsim::HwError> for CoreError {
    fn from(err: rescnn_hwsim::HwError) -> Self {
        CoreError::Model(err.to_string())
    }
}

/// Why [`SloServer::submit`](crate::SloServer::submit) refused a request.
///
/// Every refusal is typed and immediate — the server never silently drops a
/// submission. `QueueFull` is the backpressure signal: the bounded submission
/// queue is at capacity and the caller should retry later (or shed upstream).
/// `Draining` and `Stopped` are lifecycle signals: the server no longer
/// accepts new work, permanently.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum SubmitError {
    /// The bounded submission queue is at capacity; retry after completions
    /// drain or shed the request upstream.
    QueueFull {
        /// The configured queue bound the submission ran into.
        capacity: usize,
    },
    /// Shutdown has begun: the server is draining in-flight work and accepts
    /// no new submissions.
    Draining,
    /// The event loop has terminated (drained, or its worker died).
    Stopped,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity}); apply backpressure")
            }
            SubmitError::Draining => write!(f, "server is draining; new submissions are rejected"),
            SubmitError::Stopped => write!(f, "server is stopped"),
        }
    }
}

impl Error for SubmitError {}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert!(CoreError::EmptyDataset.to_string().contains("at least one"));
        assert!(CoreError::InvalidConfig { reason: "no resolutions".into() }
            .to_string()
            .contains("no resolutions"));
        let e: CoreError = rescnn_imaging::ImagingError::EmptyImage.into();
        assert!(e.to_string().contains("imaging"));
        let e: CoreError = rescnn_projpeg::CodecError::InvalidQuality { quality: 0 }.into();
        assert!(e.to_string().contains("codec"));
        let e: CoreError = rescnn_models::ModelError::BadInput { reason: "x".into() }.into();
        assert!(e.to_string().contains("model"));
        let e: CoreError = rescnn_hwsim::HwError::Model("y".into()).into();
        assert!(e.to_string().contains("model"));
        let e = CoreError::Panicked { message: "index out of bounds".into() };
        assert!(e.to_string().contains("panicked"));
        assert!(e.to_string().contains("index out of bounds"));
        let e = CoreError::Cancelled { reason: "watchdog: 10x over estimate".into() };
        assert!(e.to_string().contains("cancelled"));
        assert!(e.to_string().contains("watchdog"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
