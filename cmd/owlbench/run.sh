#!/usr/bin/env bash
# BENCHMARK.json's command. owlbench is a module of its own (it must build
# from this directory's go.mod), so it cannot be run as ./cmd/owlbench from
# the repository root; this changes into the module first.
cd "$(dirname "${BASH_SOURCE[0]}")" && exec go run . "$@"
