package main

import "fixture/internal/a"

func main() { run() }

func run() {
	a.Plain()
	a.Generic(struct{ X []int }{})
}
