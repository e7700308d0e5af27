// Fixture: stream operations whose completion events are dropped.
package fixture

import (
	"streamgpu/internal/des"
	"streamgpu/internal/gpu"
)

func drops(p *des.Proc, st *gpu.Stream, dst *gpu.Buf, h *gpu.HostBuf, k *gpu.Kernel) {
	st.CopyH2D(p, dst, 0, h, 0, 64)            // want `completion event`
	st.Launch(p, k, gpu.Grid{})                // want `completion event`
	go st.CopyD2H(p, h, 0, dst, 0, 64)         // want `discarded by go`
	defer st.Record(p)                         // want `discarded by defer`
	st.CopyH2DStaged(p, dst, 0, h, 0, 64, 0.5) // want `completion event`
}
