package wire

import "ldv/internal/obs"

// Frame accounting: every Write/Read records total messages and bytes
// (header + payload) plus a per-kind message counter; a run of rows written
// or read in bulk (WriteDataRows, Reader) is recorded once per run. Both
// endpoints of a simulated connection live in this process, so "out" means
// frames written and "in" means frames read, regardless of role.
var (
	mOutMsgs  = obs.NewCounter("wire.out.msgs", "Frames written to the wire")
	mOutBytes = obs.NewCounter("wire.out.bytes", "Bytes written to the wire (header + payload)")
	mInMsgs   = obs.NewCounter("wire.in.msgs", "Frames read from the wire")
	mInBytes  = obs.NewCounter("wire.in.bytes", "Bytes read from the wire (header + payload)")

	mOutByTag [256]*obs.Counter
	mInByTag  [256]*obs.Counter
)

func init() {
	obs.DescribePrefix("wire.out.msgs.", "Frames written by message kind")
	obs.DescribePrefix("wire.in.msgs.", "Frames read by message kind")
	for _, tag := range Tags() {
		mOutByTag[tag] = obs.GetCounter("wire.out.msgs." + TagName(tag))
		mInByTag[tag] = obs.GetCounter("wire.in.msgs." + TagName(tag))
	}
}

// recordOut counts frames of one kind written, frameBytes in all.
func recordOut(tag byte, frames, frameBytes int) {
	mOutMsgs.Add(int64(frames))
	mOutBytes.Add(int64(frameBytes))
	if c := mOutByTag[tag]; c != nil {
		c.Add(int64(frames))
	}
}

// recordIn counts frames of one kind read, frameBytes in all.
func recordIn(tag byte, frames, frameBytes int) {
	mInMsgs.Add(int64(frames))
	mInBytes.Add(int64(frameBytes))
	if c := mInByTag[tag]; c != nil {
		c.Add(int64(frames))
	}
}
