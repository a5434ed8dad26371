//! The daemon's error type.
//!
//! Serving code handles untrusted input by definition — request bytes off a
//! socket, artifact bytes off disk that another process may be rewriting —
//! so every failure mode is a typed [`ServeError`] that degrades to an error
//! response (or a kept-serving old model), never a panic that takes the
//! process down.

use zsl_core::ZslError;

/// Everything that can go wrong between accepting a connection and writing
/// a response.
#[derive(Debug)]
pub enum ServeError {
    /// A socket or filesystem operation failed.
    Io(std::io::Error),
    /// Loading or validating a `.zsm` model artifact failed; the full typed
    /// chain (`ZslError` → `DataError` → …) is preserved through `source()`.
    Model(ZslError),
    /// The client's request was malformed: bad HTTP framing, an unparsable
    /// feature value, a non-finite feature, or a row whose width disagrees
    /// with the model's feature dimension.
    Protocol(String),
    /// The batching worker shut down while a request was in flight — only
    /// observable during daemon shutdown.
    Closed,
    /// Scoring the batch that held this request's rows panicked. The worker
    /// answers every row of that batch with this error and keeps serving.
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::Protocol(msg) => write!(f, "bad request: {msg}"),
            ServeError::Closed => write!(f, "server is shutting down"),
            ServeError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Model(e) => Some(e),
            ServeError::Protocol(_) | ServeError::Closed | ServeError::Internal(_) => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ZslError> for ServeError {
    fn from(e: ZslError) -> Self {
        ServeError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn source_chains_reach_the_inner_model_error() {
        let top = ServeError::Model(ZslError::Config("bad bank".into()));
        let inner = top.source().expect("model source");
        assert!(inner.to_string().contains("bad bank"));
        assert!(ServeError::Protocol("x".into()).source().is_none());
        assert!(ServeError::Closed.source().is_none());
    }
}
