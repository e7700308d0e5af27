package gpu

// KernelSpec is a device function in "source" form: a named body that
// receives its arguments at launch time, the way real CUDA kernels receive
// a parameter list and OpenCL kernels receive clSetKernelArg values.
//
// Application kernels (Mandelbrot, SHA-1, LZSS FindMatch) are written once
// as KernelSpecs and launched through either API facade:
//
//   - the cuda facade passes args positionally at launch
//     (cudaLaunchKernel style),
//   - the opencl facade snapshots args set with SetArg on a (non
//     thread-safe) kernel object at enqueue time.
type KernelSpec struct {
	Name              string
	RegsPerThread     int
	SharedMemPerBlock int64
	// Body defines the kernel: it runs once per thread; args is the
	// launch-time parameter list.
	Body func(t Thread, args []any) int64
	// Warp, when set, is what launches execute instead of Body: Bind calls
	// it once with the parameter list, so argument decoding is paid per
	// launch, and the WarpFunc it returns does Body's work a run of threads
	// at a time (see Kernel.Warp). Bind runs when the launch is enqueued,
	// before the copies enqueued ahead of it on the stream have executed:
	// the factory may capture buffers but must not read their contents.
	Warp func(args []any) WarpFunc
}

// Bind produces a launchable Kernel with the argument list fixed.
func (ks *KernelSpec) Bind(args ...any) *Kernel {
	bound := make([]any, len(args))
	copy(bound, args)
	k := &Kernel{
		Name:              ks.Name,
		RegsPerThread:     ks.RegsPerThread,
		SharedMemPerBlock: ks.SharedMemPerBlock,
		Func:              func(t Thread) int64 { return ks.Body(t, bound) },
	}
	if ks.Warp != nil {
		k.Warp = ks.Warp(bound)
	}
	return k
}
