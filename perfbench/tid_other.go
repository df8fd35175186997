//go:build !linux

package main

// threadID has no cheap portable form; off Linux every span lands on
// one pseudo-thread, so the traced ledger's self times are not
// meaningful there. The untraced metrics do not use it.
func threadID() int32 { return 0 }
