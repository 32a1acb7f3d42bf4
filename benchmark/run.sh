#!/bin/sh
# Build the benchmark from source and run it with the given arguments.
# Run from the repository root; see benchmark/README.md.
exec dune exec --root . --cache=disabled --display quiet ./benchmark/main.exe -- "$@"
