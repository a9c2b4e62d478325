//! Offline stand-in for serde_json. `to_string` emits a placeholder
//! object; `from_str` always errors (the stub cannot deserialize), so
//! round-trip tests fail — known stub collateral, not a code failure.

use std::fmt;

#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json stub: {}", self.msg)
    }
}

impl std::error::Error for Error {}

pub fn to_string<T: ?Sized>(_value: &T) -> Result<String, Error> {
    Ok("{}".to_string())
}

pub fn to_string_pretty<T: ?Sized>(_value: &T) -> Result<String, Error> {
    Ok("{}".to_string())
}

pub fn from_str<T>(_s: &str) -> Result<T, Error> {
    Err(Error {
        msg: "deserialization unsupported offline".to_string(),
    })
}
