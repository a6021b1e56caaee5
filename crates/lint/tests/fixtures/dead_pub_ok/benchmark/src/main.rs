//! Fixture: the benchmark package's tests count as callers.

fn main() {}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_the_api() {
        assert_eq!(sjc_geom::called_from_benchmark_test(), 3);
    }
}
