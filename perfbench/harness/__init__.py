"""The repository benchmark's harness (see perfbench/README.md)."""
