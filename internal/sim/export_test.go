package sim

// JournalVersion exposes the checkpoint version to the external tests.
const JournalVersion = journalVersion
