//! # gam-bench — the count record and the counterexample hunt
//!
//! Two binaries — `counts`, which writes the deterministic count record
//! `BENCH_counts.json`, and `scenario_hunt`, the corpus hunt — and the
//! JSON module both write their records with. The paper's claims are
//! asserted by tests, not here; see EXPERIMENTS.md for where each lives.
//! Nothing here reads a clock: wall-clock measurement is `benchmark/`'s.

pub mod json;

#[cfg(test)]
mod tests {
    use super::json::Json;

    /// Every object key of `value`, nested ones included.
    fn keys<'a>(value: &'a Json, out: &mut Vec<&'a str>) {
        match value {
            Json::Obj(pairs) => {
                for (key, inner) in pairs {
                    out.push(key);
                    keys(inner, out);
                }
            }
            Json::Arr(items) => items.iter().for_each(|inner| keys(inner, out)),
            _ => {}
        }
    }

    /// The committed record is what the `counts` bin says it writes — three
    /// sections, and nothing a clock, a core count or a mode could have
    /// put there — so `git diff --exit-code` on it can be exact.
    #[test]
    fn the_committed_count_record_holds_counts_only() {
        let record = Json::parse(include_str!("../../../BENCH_counts.json")).expect("parses");
        let Json::Obj(sections) = &record else {
            panic!("the record is an object");
        };
        let sections: Vec<&str> = sections.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(sections, ["explore", "serve", "corpus"]);
        let mut all = Vec::new();
        keys(&record, &mut all);
        assert!(all.len() > 100, "a real record: {} keys", all.len());
        for key in all {
            assert!(
                !["_ns", "_per_sec", "_ms"].iter().any(|s| key.ends_with(s))
                    && !["elapsed", "cores", "threads", "quick", "speedup"].contains(&key),
                "{key:?} is not a count"
            );
        }
    }
}
