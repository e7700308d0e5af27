package cpuid

// CPUID returns the four registers the CPUID instruction sets for leaf and
// subleaf sub.
func CPUID(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// XCR0 returns the extended control register XCR0 (XGETBV with ECX = 0):
// bit i set means the OS saves and restores state component i on a
// context switch. Call it only when CPUID leaf 1 reports OSXSAVE (ECX bit
// 27); without it XGETBV faults.
func XCR0() uint64
