pub fn ok() {}
