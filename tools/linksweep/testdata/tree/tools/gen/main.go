// A main package under tools/ is not one of the product's binaries.
package main

func main() {}
