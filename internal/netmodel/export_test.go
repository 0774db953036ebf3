package netmodel

// PathsReference exposes the frozen path oracle to the external tests.
var PathsReference = pathsReference
