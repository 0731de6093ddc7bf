package core

// Helpers the external test package (core_test) shares with the in-package
// tests. It exists because the comparison against internal/baseline cannot
// be an in-package test: that package imports this one.
var (
	TestStack      = testStack
	EachKernelPath = eachKernelPath
)
