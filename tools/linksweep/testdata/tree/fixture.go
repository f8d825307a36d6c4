// Package fixture is the facade of the sweep's fixture module.
package fixture

import "fixture/internal/a"

// Root is a facade root: the generated program references it.
func Root() { a.FacadeOnly() }

// Generic needs type arguments, so it cannot be referenced as a root.
func Generic[T any](T) {}

// Wrapper is re-exported; its method is not a root.
type Wrapper = a.V

func helper() {}
