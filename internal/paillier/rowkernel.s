//go:build !math_big_pure_go

// Empty on purpose: an assembly file in the package lets rowkernel.go
// declare addMulVVW without a body, which go:linkname then binds to
// math/big's implementation.
