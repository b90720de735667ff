//! A second caller that finally calls the oracle: its allow goes stale.
fn check() -> bool {
    store::oracle() == 8
}
