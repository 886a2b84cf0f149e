package gfw

import "geneva/internal/obs"

// boxMetrics is the counter set for one protocol box. The five GFW
// protocols are static, so every set is registered at package init and
// NewBox resolves its set with a single map lookup — nothing per-packet
// ever touches a map or allocates.
type boxMetrics struct {
	censored      *obs.Counter // censorship verdicts (all causes)
	residual      *obs.Counter // verdicts caused by residual censorship
	resyncLoad    *obs.Counter // trigger 1: payload from server mid-handshake
	resyncRst     *obs.Counter // trigger 2: server RST
	resyncCorrupt *obs.Counter // trigger 3: SYN+ACK with corrupt ack
	resyncLoadSA  *obs.Counter // payload-bearing SYN+ACK
	reacquired    *obs.Counter // clean-ACK re-acquisitions
	failOpen      *obs.Counter // flows the box gave up on (window sanity, partial line)
	residualSwept *obs.Counter // expired residual entries swept
	tupleReuse    *obs.Counter // stale TCBs re-tracked on 4-tuple reuse
}

func newBoxMetrics(proto string) *boxMetrics {
	p := "censor.gfw." + proto + "."
	return &boxMetrics{
		censored:      obs.NewCounter(p + "censored"),
		residual:      obs.NewCounter(p + "residual_hits"),
		resyncLoad:    obs.NewCounter(p + "resync_server_load"),
		resyncRst:     obs.NewCounter(p + "resync_server_rst"),
		resyncCorrupt: obs.NewCounter(p + "resync_corrupt_ack"),
		resyncLoadSA:  obs.NewCounter(p + "resync_load_synack"),
		reacquired:    obs.NewCounter(p + "reacquired"),
		failOpen:      obs.NewCounter(p + "fail_open"),
		residualSwept: obs.NewCounter(p + "residual_swept"),
		tupleReuse:    obs.NewCounter(p + "tuple_reuse_resync"),
	}
}

// mEvicted counts flows the GFW's flow table dropped at its bound.
var mEvicted = obs.NewCounter("censor.gfw.evicted")

// protoMetrics maps each of the five GFW protocols to its registered
// counter set. ChinaParams is the only source of box protocols.
var protoMetrics = map[string]*boxMetrics{
	"dns":   newBoxMetrics("dns"),
	"ftp":   newBoxMetrics("ftp"),
	"http":  newBoxMetrics("http"),
	"https": newBoxMetrics("https"),
	"smtp":  newBoxMetrics("smtp"),
}
