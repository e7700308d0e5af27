// Package cpuid reads the amd64 CPU's feature registers, for the packages
// that choose an assembly kernel at init: sha1x's SHA-NI loop and mandel's
// AVX row kernels. Other architectures have no kernels to choose, and this
// package declares nothing there.
package cpuid
