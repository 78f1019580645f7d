package flserve

// Test helpers shared with the external flserve_test package, which exists
// because its tests fold through internal/agg (agg imports flserve).
var (
	ClientUpdate    = clientUpdate
	CompressUpdates = compressUpdates
	UploadAll       = uploadAll
)
