// golden: an independence oracle that scores commutativity with a float
// threshold — P002 fires twice on the `f64` casts (6) and once on the
// float literal (7). Platform-dependent rounding here would change which
// groups share a shard, and with them the sharded merge's byte-identity.
pub fn actions_commute(overlap: u32, total: u32) -> bool {
    let frac = f64::from(overlap) / f64::from(total.max(1));
    frac < 0.5
}
