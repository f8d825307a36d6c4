// Package deep is imported only by the test-support package, so it is
// test support too.
package deep

func Helper() {}
