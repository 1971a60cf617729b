//! Seeded two-lock ordering cycle: `ab` takes `a` then `b`, `ba` takes
//! `b` then `a`. FC009 must report exactly one cycle naming both locks.

#![forbid(unsafe_code)]

use std::sync::{Mutex, PoisonError};

pub struct Pair {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl Pair {
    pub fn ab(&self) -> u32 {
        let ga = self.a.lock().unwrap_or_else(PoisonError::into_inner);
        let gb = self.b.lock().unwrap_or_else(PoisonError::into_inner);
        *ga + *gb
    }

    pub fn ba(&self) -> u32 {
        let gb = self.b.lock().unwrap_or_else(PoisonError::into_inner);
        let ga = self.a.lock().unwrap_or_else(PoisonError::into_inner);
        *ga + *gb
    }
}
