"""The repository benchmark (see ``perf/README.md``)."""
