"""Firmware attestation toolkit: vendor signing, a verify-and-lock secure
monitor over an emulated MCU firmware region, and an adversarial harness."""
