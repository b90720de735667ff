// golden: a reasonless allow is itself a finding (S001), and the finding
// it tried to silence still fires
// gam-lint: allow(U001)
pub fn uncalled() {}
