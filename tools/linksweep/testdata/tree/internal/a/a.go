package a

func init() {}

// Plain is called by the command.
func Plain() {}

// Generic is linked under an instantiation name with spaces and nested
// brackets.
func Generic[T any](T) {}

type V struct{}

// ValueM is linked under its own name.
func (V) ValueM() {}

// Wrapped is linked only through its pointer wrapper, (*V).Wrapped.
func (V) Wrapped() {}

// PtrM has a pointer receiver.
func (*V) PtrM() {}

type G[T any] struct{}

// GenM is a method of a generic type.
func (*G[T]) GenM() {}

// FacadeOnly is linked only by the facade program.
func FacadeOnly() {}

// Planted is linked by no binary.
func Planted() {}
