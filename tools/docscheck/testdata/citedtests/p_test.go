package p

func TestDeclared() {}

func BenchmarkDeclared() {}
