//! The workspace-wide error type.

use std::fmt;

/// Result alias used across the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors produced anywhere in the engine, tagged by pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Lexing / parsing failure, with a position-annotated message.
    Parse(String),
    /// Name resolution, type checking, or planning failure.
    Plan(String),
    /// Type mismatch detected at runtime (planner bugs surface here).
    Type(String),
    /// Runtime execution failure (overflow, bad cast, state errors).
    Execution(String),
    /// Catalog errors: unknown/duplicate tables.
    Catalog(String),
    /// Feature recognized but not supported.
    Unsupported(String),
    /// A table view of a result whose emitted changelog was handed to
    /// sinks and trimmed (the pipeline did not opt into retaining it).
    NotRetained(String),
}

impl Error {
    /// Build a parse error.
    pub fn parse(msg: impl Into<String>) -> Error {
        Error::Parse(msg.into())
    }

    /// Build a planning error.
    pub fn plan(msg: impl Into<String>) -> Error {
        Error::Plan(msg.into())
    }

    /// Build a type error.
    pub fn type_error(msg: impl Into<String>) -> Error {
        Error::Type(msg.into())
    }

    /// Build an execution error.
    pub fn exec(msg: impl Into<String>) -> Error {
        Error::Execution(msg.into())
    }

    /// Build a catalog error.
    pub fn catalog(msg: impl Into<String>) -> Error {
        Error::Catalog(msg.into())
    }

    /// Build an unsupported-feature error.
    pub fn unsupported(msg: impl Into<String>) -> Error {
        Error::Unsupported(msg.into())
    }

    /// Build a "result table not retained" error.
    pub fn not_retained(msg: impl Into<String>) -> Error {
        Error::NotRetained(msg.into())
    }

    /// The inner message, without the stage prefix.
    pub fn message(&self) -> &str {
        match self {
            Error::Parse(m)
            | Error::Plan(m)
            | Error::Type(m)
            | Error::Execution(m)
            | Error::Catalog(m)
            | Error::Unsupported(m)
            | Error::NotRetained(m) => m,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::Plan(m) => write!(f, "plan error: {m}"),
            Error::Type(m) => write!(f, "type error: {m}"),
            Error::Execution(m) => write!(f, "execution error: {m}"),
            Error::Catalog(m) => write!(f, "catalog error: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::NotRetained(m) => write!(f, "result table not retained: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_stage() {
        assert_eq!(
            Error::parse("unexpected token").to_string(),
            "parse error: unexpected token"
        );
        assert_eq!(Error::exec("boom").to_string(), "execution error: boom");
        assert_eq!(
            Error::unsupported("MATCH_RECOGNIZE").to_string(),
            "unsupported: MATCH_RECOGNIZE"
        );
    }

    #[test]
    fn message_strips_stage() {
        assert_eq!(Error::plan("x").message(), "x");
        assert_eq!(Error::catalog("y").message(), "y");
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::type_error("t"));
    }
}
