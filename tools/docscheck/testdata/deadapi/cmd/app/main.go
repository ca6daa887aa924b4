package main

import "example/internal/p"

func main() {
	var t p.T
	var m p.Mode = p.ModeA
	_, _ = t, m
	p.Live()
}
