//! Another crate's binary: every name it spells counts as a caller.
fn main() {
    let c = store::Counter(store::called_elsewhere());
    println!("{c}");
}
