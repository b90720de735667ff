//! An integration test: the names it spells do not count as callers.
use store::{oracle, OnlyInTests};

#[test]
fn oracle_agrees() {
    let _ = OnlyInTests;
    assert_eq!(oracle(), 8);
}
