package tcpstack

import "geneva/internal/obs"

var (
	mSegmentsSent = obs.NewCounter("tcpstack.segments_sent")
	mSegmentsRcvd = obs.NewCounter("tcpstack.segments_received")
	mChecksumDrop = obs.NewCounter("tcpstack.checksum_drops")
	mRetransmits  = obs.NewCounter("tcpstack.retransmits")
	mRtxGiveUp    = obs.NewCounter("tcpstack.rtx_giveup")
	mCloseClean   = obs.NewCounter("tcpstack.close_clean")
	mCloseReset   = obs.NewCounter("tcpstack.close_reset")
)
