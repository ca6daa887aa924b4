package sub

/*
NOTES.md sits beside this file, ../docs/kept.md above it; docs/gone.md is
nowhere.
*/
