package main

import "syscall"

// threadID identifies the OS thread the caller runs on: a goroutine
// stays on one thread while it runs, so a call's nested spans land on
// the thread its own span started on.
func threadID() int32 { return int32(syscall.Gettid()) }
