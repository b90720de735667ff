//! The benchmark workspace: its calls count.
fn main() {
    println!("{}", store::benchmarked());
}
