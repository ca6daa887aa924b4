package main

import (
	"encoding/json"
	"fmt"

	"example/d500"
	"example/internal/p"
)

func main() {
	var t p.T
	var m p.Mode = p.ModeA
	_, _ = json.Marshal(t)
	_ = m
	p.Live()
	p.A{}.Reset()
	_ = p.B{}
	fmt.Println(p.S{})
	var v any = p.Q{}
	if q, ok := v.(interface{ Quack() string }); ok {
		fmt.Println(q.Quack())
	}
	var n p.Namer = p.Outer{}
	fmt.Println(n.Name(), n.Kind())
	f := p.F{Keyed: 1, Tagged: 2}
	f.Assigned = 3
	f.Counted++
	fmt.Println(f.Read)
	fmt.Println(p.G{1, 2}.X, p.H{})
	d500.Run()
}
