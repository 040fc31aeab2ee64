"""The repo's benchmark: see bench/README.md and BENCHMARK.json."""
