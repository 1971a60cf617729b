#![forbid(unsafe_code)]

pub fn ok() {}
