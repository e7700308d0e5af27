package cpuid

// CPUID returns the four registers the CPUID instruction sets for leaf and
// subleaf sub.
func CPUID(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// XCR0 returns the extended control register XCR0 (XGETBV with ECX = 0):
// bit i set means the OS saves and restores state component i on a
// context switch. Call it only when CPUID leaf 1 reports OSXSAVE (ECX bit
// 27); without it XGETBV faults.
func XCR0() uint64

// AVX512 returns the feature bits of CPUID leaf 7 (EBX and ECX, subleaf 0)
// for a caller to test its AVX-512 extensions in, with ok true only if the
// OS saves and restores the AVX-512 registers: CPUID leaf 1 reports OSXSAVE
// and XCR0 has the SSE, AVX, opmask and both ZMM-half bits (0xE6), and the
// CPU has leaf 7 at all. Where ok is false no AVX-512 instruction may run.
func AVX512() (ebx7, ecx7 uint32, ok bool) {
	const osxsave = 1 << 27
	maxLeaf, _, _, _ := CPUID(0, 0)
	if _, _, ecx1, _ := CPUID(1, 0); ecx1&osxsave == 0 || maxLeaf < 7 || XCR0()&0xe6 != 0xe6 {
		return 0, 0, false
	}
	_, ebx7, ecx7, _ = CPUID(7, 0)
	return ebx7, ecx7, true
}
