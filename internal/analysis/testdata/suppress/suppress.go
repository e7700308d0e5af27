// Package suppress exercises the streamvet:ignore driver logic: a valid
// suppression with a reason, a directive missing its reason, a bare
// directive, and one naming an unknown analyzer. Every function drops a
// pipeline's Run error on purpose so the runerr analyzer has something to
// say.
package suppress

import "streamgpu/internal/ff"

func validSuppression(p *ff.Pipeline) {
	p.Run() //streamvet:ignore runerr fixture proves a reasoned directive suppresses the diagnostic
}

func missingReason(p *ff.Pipeline) {
	//streamvet:ignore runerr
	p.Run()
}

func bareDirective(p *ff.Pipeline) {
	//streamvet:ignore
	p.Run()
}

func unknownAnalyzer(p *ff.Pipeline) {
	//streamvet:ignore nosuchcheck the analyzer name is wrong so this must not suppress
	p.Run()
}
