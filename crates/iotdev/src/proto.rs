//! The IoT application protocol and its wire codec.
//!
//! Real IoT devices speak a zoo of vendor protocols (HTTP management
//! consoles, UPnP control, CoAP telemetry, plain DNS). The substrate
//! collapses that zoo into one compact binary protocol with four planes —
//! management, control, telemetry and DNS — which preserves exactly the
//! distinctions the paper's enforcement layer cares about: *which plane a
//! packet belongs to, whether it carries credentials, and what it asks the
//! device to do.*
//!
//! Messages are length-delimited binary (tag byte + fields) carried in the
//! UDP/TCP payload of an [`iotnet::packet::Packet`]. The codec is total in both
//! directions and property-tested for round-trip fidelity, since signature
//! µmboxes match on these wire bytes.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use core::fmt;
use iotnet::addr::Ipv4Addr;
use std::borrow::Cow;

/// Well-known ports of the substrate protocol.
pub mod ports {
    /// TCP management console (the "admin/admin web UI" of Table 1).
    pub const MGMT: u16 = 8080;
    /// UDP control plane (UPnP-like actuation, e.g. Wemo's 49153).
    pub const CONTROL: u16 = 49153;
    /// UDP telemetry plane (CoAP-like periodic reports).
    pub const TELEMETRY: u16 = 5683;
    /// UDP DNS (the Wemo open-resolver vulnerability, Table 1 row 6).
    pub const DNS: u16 = 53;
    /// TCP vendor-cloud channel (the backdoor of Table 1 row 7).
    pub const CLOUD: u16 = 8443;
}

/// Decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended before the message did.
    Truncated,
    /// Unknown message/command/action tag.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadString,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated message"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::BadString => write!(f, "invalid utf-8 in string field"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Management-plane commands.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MgmtCommand {
    /// Read the device configuration (leaks Wi-Fi creds on real devices).
    GetConfig,
    /// Fetch the current camera image / sensor dump.
    GetImage,
    /// Change the admin password.
    SetPassword {
        /// The new password.
        new: String,
    },
    /// Extract embedded key material (the CCTV RSA-key flaw, Table 1 row 4).
    ExtractKeys,
    /// Dump the firmware image.
    FirmwareDump,
    /// Reboot the device.
    Reboot,
}

/// Control-plane actions (actuation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlAction {
    /// Power on (plug, oven, bulb).
    TurnOn,
    /// Power off.
    TurnOff,
    /// Open (window actuator).
    Open,
    /// Close.
    Close,
    /// Lock (smart lock).
    Lock,
    /// Unlock.
    Unlock,
    /// Set a numeric target (thermostat setpoint, tenths of °C).
    SetTarget(i16),
    /// Set bulb color index.
    SetColor(u8),
    /// Set traffic-light phase (0 = red, 1 = yellow, 2 = green).
    SetPhase(u8),
}

/// Authentication attached to a control request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ControlAuth {
    /// No credentials.
    None,
    /// Username/password.
    Password {
        /// Username.
        user: String,
        /// Password.
        pass: String,
    },
    /// A session token from a prior management login.
    Token(u32),
    /// Possession of a device key pair (the leaked-RSA-key path).
    Key(u64),
}

/// Telemetry report kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TelemetryKind {
    /// Temperature in °C.
    Temperature,
    /// Power draw in watts.
    Power,
    /// Light level.
    Light,
    /// Motion detected (1.0) or not (0.0).
    Motion,
    /// Smoke density.
    Smoke,
    /// Generic status heartbeat.
    Status,
}

/// Asynchronous device events (pushed to subscribers / the hub).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Smoke alarm raised.
    SmokeAlarm,
    /// Smoke alarm cleared.
    SmokeClear,
    /// Motion started.
    MotionStart,
    /// Motion stopped.
    MotionStop,
    /// Door was opened.
    DoorOpened,
    /// The device believes it is being tampered with (repeated bad logins).
    TamperSuspected,
}

/// One application-layer message.
#[derive(Debug, Clone, PartialEq)]
pub enum AppMessage {
    /// Login to the management console. The strings are `'static` where
    /// the sender spells them from a constant (the attacker's dictionary,
    /// a campaign's login), and owned where they were decoded.
    MgmtLogin {
        /// Username.
        user: Cow<'static, str>,
        /// Password.
        pass: Cow<'static, str>,
    },
    /// Login accepted; carry `token` in subsequent commands.
    MgmtLoginOk {
        /// Session token.
        token: u32,
    },
    /// Login or command rejected.
    MgmtDenied,
    /// An authenticated management command.
    MgmtCommand {
        /// Session token (ignored by devices with open management).
        token: u32,
        /// The command.
        command: MgmtCommand,
    },
    /// Result of a management command.
    MgmtResult {
        /// Success flag.
        ok: bool,
        /// Returned data (image bytes, config, key material...).
        data: Bytes,
    },
    /// A control-plane actuation request.
    Control {
        /// The requested action.
        action: ControlAction,
        /// Credentials, if any.
        auth: ControlAuth,
    },
    /// Control acknowledgement.
    ControlAck {
        /// Whether the action was performed.
        ok: bool,
    },
    /// A periodic telemetry report.
    Telemetry {
        /// What is being reported.
        kind: TelemetryKind,
        /// The value.
        value: f64,
    },
    /// An asynchronous event notification.
    Event {
        /// The event.
        kind: EventKind,
    },
    /// A DNS query (devices with [`crate::vuln::Vulnerability::OpenDnsResolver`]
    /// answer anyone).
    DnsQuery {
        /// Queried name.
        name: String,
        /// Recursion desired.
        recursion: bool,
    },
    /// A DNS response; `answers` scales the wire size (amplification).
    DnsResponse {
        /// Echoed name.
        name: String,
        /// Resolved address.
        addr: Ipv4Addr,
        /// Number of answer records; each pads the wire by 32 bytes.
        answers: u16,
    },
    /// A vendor-cloud command (arrives on the cloud port; devices with the
    /// cloud-bypass backdoor obey it with no authentication).
    CloudCommand {
        /// The action.
        action: ControlAction,
    },
}

/// An [`AppMessage`] read in place: its strings and data borrow the wire
/// bytes. Payload inspectors (the IDS's matchers, the login challenger)
/// decode this and copy nothing; [`AppMessage::decode`] is this decode
/// made owned, so the two accept exactly the same payloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MessageRef<'a> {
    /// [`AppMessage::MgmtLogin`].
    MgmtLogin {
        /// Username.
        user: &'a str,
        /// Password.
        pass: &'a str,
    },
    /// [`AppMessage::MgmtLoginOk`].
    MgmtLoginOk {
        /// Session token.
        token: u32,
    },
    /// [`AppMessage::MgmtDenied`].
    MgmtDenied,
    /// [`AppMessage::MgmtCommand`].
    MgmtCommand {
        /// Session token.
        token: u32,
        /// The command.
        command: CommandRef<'a>,
    },
    /// [`AppMessage::MgmtResult`].
    MgmtResult {
        /// Success flag.
        ok: bool,
        /// Returned data.
        data: &'a [u8],
    },
    /// [`AppMessage::Control`].
    Control {
        /// The requested action.
        action: ControlAction,
        /// Credentials, if any.
        auth: AuthRef<'a>,
    },
    /// [`AppMessage::ControlAck`].
    ControlAck {
        /// Whether the action was performed.
        ok: bool,
    },
    /// [`AppMessage::Telemetry`].
    Telemetry {
        /// What is being reported.
        kind: TelemetryKind,
        /// The value.
        value: f64,
    },
    /// [`AppMessage::Event`].
    Event {
        /// The event.
        kind: EventKind,
    },
    /// [`AppMessage::DnsQuery`].
    DnsQuery {
        /// Queried name.
        name: &'a str,
        /// Recursion desired.
        recursion: bool,
    },
    /// [`AppMessage::DnsResponse`].
    DnsResponse {
        /// Echoed name.
        name: &'a str,
        /// Resolved address.
        addr: Ipv4Addr,
        /// Number of answer records.
        answers: u16,
    },
    /// [`AppMessage::CloudCommand`].
    CloudCommand {
        /// The action.
        action: ControlAction,
    },
}

/// A [`MgmtCommand`] read in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandRef<'a> {
    /// [`MgmtCommand::GetConfig`].
    GetConfig,
    /// [`MgmtCommand::GetImage`].
    GetImage,
    /// [`MgmtCommand::SetPassword`].
    SetPassword {
        /// The new password.
        new: &'a str,
    },
    /// [`MgmtCommand::ExtractKeys`].
    ExtractKeys,
    /// [`MgmtCommand::FirmwareDump`].
    FirmwareDump,
    /// [`MgmtCommand::Reboot`].
    Reboot,
}

/// A [`ControlAuth`] read in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthRef<'a> {
    /// [`ControlAuth::None`].
    None,
    /// [`ControlAuth::Password`].
    Password {
        /// Username.
        user: &'a str,
        /// Password.
        pass: &'a str,
    },
    /// [`ControlAuth::Token`].
    Token(u32),
    /// [`ControlAuth::Key`].
    Key(u64),
}

// ---- tag constants -------------------------------------------------------

/// Wire tags: the first byte of every encoded [`AppMessage`] names its
/// variant. Public so payload inspectors (the IDS signature pre-filters)
/// can reject non-candidate packets on one byte compare before paying for
/// a full decode; [`AppMessage::decode`] succeeding for a variant implies
/// the payload's first byte is that variant's tag.
pub mod tag {
    /// `AppMessage::MgmtLogin`.
    pub const MGMT_LOGIN: u8 = 1;
    /// `AppMessage::MgmtLoginOk`.
    pub(crate) const MGMT_LOGIN_OK: u8 = 2;
    /// `AppMessage::MgmtDenied`.
    pub(crate) const MGMT_DENIED: u8 = 3;
    /// `AppMessage::MgmtCommand`.
    pub(crate) const MGMT_COMMAND: u8 = 4;
    /// `AppMessage::MgmtResult`.
    pub(crate) const MGMT_RESULT: u8 = 5;
    /// `AppMessage::Control`.
    pub const CONTROL: u8 = 6;
    /// `AppMessage::ControlAck`.
    pub(crate) const CONTROL_ACK: u8 = 7;
    /// `AppMessage::Telemetry`.
    pub(crate) const TELEMETRY: u8 = 8;
    /// `AppMessage::Event`.
    pub(crate) const EVENT: u8 = 9;
    /// `AppMessage::DnsQuery`.
    pub const DNS_QUERY: u8 = 10;
    /// `AppMessage::DnsResponse`.
    pub(crate) const DNS_RESPONSE: u8 = 11;
    /// `AppMessage::CloudCommand`.
    pub const CLOUD_COMMAND: u8 = 12;
}

const T_MGMT_LOGIN: u8 = tag::MGMT_LOGIN;
const T_MGMT_LOGIN_OK: u8 = tag::MGMT_LOGIN_OK;
const T_MGMT_DENIED: u8 = tag::MGMT_DENIED;
const T_MGMT_COMMAND: u8 = tag::MGMT_COMMAND;
const T_MGMT_RESULT: u8 = tag::MGMT_RESULT;
const T_CONTROL: u8 = tag::CONTROL;
const T_CONTROL_ACK: u8 = tag::CONTROL_ACK;
const T_TELEMETRY: u8 = tag::TELEMETRY;
const T_EVENT: u8 = tag::EVENT;
const T_DNS_QUERY: u8 = tag::DNS_QUERY;
const T_DNS_RESPONSE: u8 = tag::DNS_RESPONSE;
const T_CLOUD_COMMAND: u8 = tag::CLOUD_COMMAND;

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str, CodecError> {
    if buf.remaining() < 2 {
        return Err(CodecError::Truncated);
    }
    let len = buf.get_u16() as usize;
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    let s = std::str::from_utf8(&buf[..len]).map_err(|_| CodecError::BadString)?;
    buf.advance(len);
    Ok(s)
}

fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
    buf.put_u32(b.len() as u32);
    buf.put_slice(b);
}

fn get_bytes<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    let b = &buf[..len];
    buf.advance(len);
    Ok(b)
}

impl MgmtCommand {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            MgmtCommand::GetConfig => buf.put_u8(0),
            MgmtCommand::GetImage => buf.put_u8(1),
            MgmtCommand::SetPassword { new } => {
                buf.put_u8(2);
                put_string(buf, new);
            }
            MgmtCommand::ExtractKeys => buf.put_u8(3),
            MgmtCommand::FirmwareDump => buf.put_u8(4),
            MgmtCommand::Reboot => buf.put_u8(5),
        }
    }
}

impl<'a> CommandRef<'a> {
    fn decode(buf: &mut &'a [u8]) -> Result<CommandRef<'a>, CodecError> {
        if buf.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        match buf.get_u8() {
            0 => Ok(CommandRef::GetConfig),
            1 => Ok(CommandRef::GetImage),
            2 => Ok(CommandRef::SetPassword { new: get_str(buf)? }),
            3 => Ok(CommandRef::ExtractKeys),
            4 => Ok(CommandRef::FirmwareDump),
            5 => Ok(CommandRef::Reboot),
            t => Err(CodecError::BadTag(t)),
        }
    }
}

impl From<CommandRef<'_>> for MgmtCommand {
    fn from(command: CommandRef<'_>) -> MgmtCommand {
        match command {
            CommandRef::GetConfig => MgmtCommand::GetConfig,
            CommandRef::GetImage => MgmtCommand::GetImage,
            CommandRef::SetPassword { new } => MgmtCommand::SetPassword { new: new.into() },
            CommandRef::ExtractKeys => MgmtCommand::ExtractKeys,
            CommandRef::FirmwareDump => MgmtCommand::FirmwareDump,
            CommandRef::Reboot => MgmtCommand::Reboot,
        }
    }
}

impl ControlAction {
    fn encode(&self, buf: &mut BytesMut) {
        match *self {
            ControlAction::TurnOn => buf.put_u8(0),
            ControlAction::TurnOff => buf.put_u8(1),
            ControlAction::Open => buf.put_u8(2),
            ControlAction::Close => buf.put_u8(3),
            ControlAction::Lock => buf.put_u8(4),
            ControlAction::Unlock => buf.put_u8(5),
            ControlAction::SetTarget(v) => {
                buf.put_u8(6);
                buf.put_i16(v);
            }
            ControlAction::SetColor(c) => {
                buf.put_u8(7);
                buf.put_u8(c);
            }
            ControlAction::SetPhase(p) => {
                buf.put_u8(8);
                buf.put_u8(p);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<ControlAction, CodecError> {
        if buf.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        match buf.get_u8() {
            0 => Ok(ControlAction::TurnOn),
            1 => Ok(ControlAction::TurnOff),
            2 => Ok(ControlAction::Open),
            3 => Ok(ControlAction::Close),
            4 => Ok(ControlAction::Lock),
            5 => Ok(ControlAction::Unlock),
            6 => {
                if buf.remaining() < 2 {
                    return Err(CodecError::Truncated);
                }
                Ok(ControlAction::SetTarget(buf.get_i16()))
            }
            7 => {
                if buf.remaining() < 1 {
                    return Err(CodecError::Truncated);
                }
                Ok(ControlAction::SetColor(buf.get_u8()))
            }
            8 => {
                if buf.remaining() < 1 {
                    return Err(CodecError::Truncated);
                }
                Ok(ControlAction::SetPhase(buf.get_u8()))
            }
            t => Err(CodecError::BadTag(t)),
        }
    }
}

impl ControlAuth {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ControlAuth::None => buf.put_u8(0),
            ControlAuth::Password { user, pass } => {
                buf.put_u8(1);
                put_string(buf, user);
                put_string(buf, pass);
            }
            ControlAuth::Token(t) => {
                buf.put_u8(2);
                buf.put_u32(*t);
            }
            ControlAuth::Key(k) => {
                buf.put_u8(3);
                buf.put_u64(*k);
            }
        }
    }
}

impl<'a> AuthRef<'a> {
    fn decode(buf: &mut &'a [u8]) -> Result<AuthRef<'a>, CodecError> {
        if buf.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        match buf.get_u8() {
            0 => Ok(AuthRef::None),
            1 => Ok(AuthRef::Password { user: get_str(buf)?, pass: get_str(buf)? }),
            2 => {
                if buf.remaining() < 4 {
                    return Err(CodecError::Truncated);
                }
                Ok(AuthRef::Token(buf.get_u32()))
            }
            3 => {
                if buf.remaining() < 8 {
                    return Err(CodecError::Truncated);
                }
                Ok(AuthRef::Key(buf.get_u64()))
            }
            t => Err(CodecError::BadTag(t)),
        }
    }
}

impl From<AuthRef<'_>> for ControlAuth {
    fn from(auth: AuthRef<'_>) -> ControlAuth {
        match auth {
            AuthRef::None => ControlAuth::None,
            AuthRef::Password { user, pass } => {
                ControlAuth::Password { user: user.into(), pass: pass.into() }
            }
            AuthRef::Token(t) => ControlAuth::Token(t),
            AuthRef::Key(k) => ControlAuth::Key(k),
        }
    }
}

fn kind_to_u8(k: TelemetryKind) -> u8 {
    match k {
        TelemetryKind::Temperature => 0,
        TelemetryKind::Power => 1,
        TelemetryKind::Light => 2,
        TelemetryKind::Motion => 3,
        TelemetryKind::Smoke => 4,
        TelemetryKind::Status => 5,
    }
}

fn kind_from_u8(v: u8) -> Result<TelemetryKind, CodecError> {
    Ok(match v {
        0 => TelemetryKind::Temperature,
        1 => TelemetryKind::Power,
        2 => TelemetryKind::Light,
        3 => TelemetryKind::Motion,
        4 => TelemetryKind::Smoke,
        5 => TelemetryKind::Status,
        t => return Err(CodecError::BadTag(t)),
    })
}

fn event_to_u8(k: EventKind) -> u8 {
    match k {
        EventKind::SmokeAlarm => 0,
        EventKind::SmokeClear => 1,
        EventKind::MotionStart => 2,
        EventKind::MotionStop => 3,
        EventKind::DoorOpened => 4,
        EventKind::TamperSuspected => 5,
    }
}

fn event_from_u8(v: u8) -> Result<EventKind, CodecError> {
    Ok(match v {
        0 => EventKind::SmokeAlarm,
        1 => EventKind::SmokeClear,
        2 => EventKind::MotionStart,
        3 => EventKind::MotionStop,
        4 => EventKind::DoorOpened,
        5 => EventKind::TamperSuspected,
        t => return Err(CodecError::BadTag(t)),
    })
}

impl AppMessage {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(32);
        match self {
            AppMessage::MgmtLogin { user, pass } => {
                buf.put_u8(T_MGMT_LOGIN);
                put_string(&mut buf, user);
                put_string(&mut buf, pass);
            }
            AppMessage::MgmtLoginOk { token } => {
                buf.put_u8(T_MGMT_LOGIN_OK);
                buf.put_u32(*token);
            }
            AppMessage::MgmtDenied => buf.put_u8(T_MGMT_DENIED),
            AppMessage::MgmtCommand { token, command } => {
                buf.put_u8(T_MGMT_COMMAND);
                buf.put_u32(*token);
                command.encode(&mut buf);
            }
            AppMessage::MgmtResult { ok, data } => {
                buf.put_u8(T_MGMT_RESULT);
                buf.put_u8(*ok as u8);
                put_bytes(&mut buf, data);
            }
            AppMessage::Control { action, auth } => {
                buf.put_u8(T_CONTROL);
                action.encode(&mut buf);
                auth.encode(&mut buf);
            }
            AppMessage::ControlAck { ok } => {
                buf.put_u8(T_CONTROL_ACK);
                buf.put_u8(*ok as u8);
            }
            AppMessage::Telemetry { kind, value } => {
                buf.put_u8(T_TELEMETRY);
                buf.put_u8(kind_to_u8(*kind));
                buf.put_f64(*value);
            }
            AppMessage::Event { kind } => {
                buf.put_u8(T_EVENT);
                buf.put_u8(event_to_u8(*kind));
            }
            AppMessage::DnsQuery { name, recursion } => {
                buf.put_u8(T_DNS_QUERY);
                put_string(&mut buf, name);
                buf.put_u8(*recursion as u8);
            }
            AppMessage::DnsResponse { name, addr, answers } => {
                buf.put_u8(T_DNS_RESPONSE);
                put_string(&mut buf, name);
                buf.put_slice(&addr.0);
                buf.put_u16(*answers);
                // Amplification padding: 32 bytes per answer record.
                buf.put_bytes(0xAA, *answers as usize * 32);
            }
            AppMessage::CloudCommand { action } => {
                buf.put_u8(T_CLOUD_COMMAND);
                action.encode(&mut buf);
            }
        }
        buf.freeze()
    }

    /// Decode from wire bytes: [`MessageRef::decode`], its strings and
    /// data copied out.
    pub fn decode(data: &[u8]) -> Result<AppMessage, CodecError> {
        MessageRef::decode(data).map(AppMessage::from)
    }

    /// Which protocol plane this message belongs to (decides the
    /// destination port).
    pub(crate) fn plane_port(&self) -> u16 {
        match self {
            AppMessage::MgmtLogin { .. }
            | AppMessage::MgmtLoginOk { .. }
            | AppMessage::MgmtDenied
            | AppMessage::MgmtCommand { .. }
            | AppMessage::MgmtResult { .. } => ports::MGMT,
            AppMessage::Control { .. } | AppMessage::ControlAck { .. } => ports::CONTROL,
            AppMessage::Telemetry { .. } | AppMessage::Event { .. } => ports::TELEMETRY,
            AppMessage::DnsQuery { .. } | AppMessage::DnsResponse { .. } => ports::DNS,
            AppMessage::CloudCommand { .. } => ports::CLOUD,
        }
    }

    /// Whether this plane runs over TCP (management and cloud) rather
    /// than UDP.
    pub fn is_tcp_plane(&self) -> bool {
        matches!(self.plane_port(), ports::MGMT | ports::CLOUD)
    }
}

impl<'a> MessageRef<'a> {
    /// Decode from wire bytes, borrowing every string and byte field.
    pub fn decode(data: &'a [u8]) -> Result<MessageRef<'a>, CodecError> {
        let mut buf = data;
        if buf.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        let tag = buf.get_u8();
        let msg = match tag {
            T_MGMT_LOGIN => {
                MessageRef::MgmtLogin { user: get_str(&mut buf)?, pass: get_str(&mut buf)? }
            }
            T_MGMT_LOGIN_OK => {
                if buf.remaining() < 4 {
                    return Err(CodecError::Truncated);
                }
                MessageRef::MgmtLoginOk { token: buf.get_u32() }
            }
            T_MGMT_DENIED => MessageRef::MgmtDenied,
            T_MGMT_COMMAND => {
                if buf.remaining() < 4 {
                    return Err(CodecError::Truncated);
                }
                let token = buf.get_u32();
                MessageRef::MgmtCommand { token, command: CommandRef::decode(&mut buf)? }
            }
            T_MGMT_RESULT => {
                if buf.remaining() < 1 {
                    return Err(CodecError::Truncated);
                }
                let ok = buf.get_u8() != 0;
                MessageRef::MgmtResult { ok, data: get_bytes(&mut buf)? }
            }
            T_CONTROL => MessageRef::Control {
                action: ControlAction::decode(&mut buf)?,
                auth: AuthRef::decode(&mut buf)?,
            },
            T_CONTROL_ACK => {
                if buf.remaining() < 1 {
                    return Err(CodecError::Truncated);
                }
                MessageRef::ControlAck { ok: buf.get_u8() != 0 }
            }
            T_TELEMETRY => {
                if buf.remaining() < 9 {
                    return Err(CodecError::Truncated);
                }
                let kind = kind_from_u8(buf.get_u8())?;
                MessageRef::Telemetry { kind, value: buf.get_f64() }
            }
            T_EVENT => {
                if buf.remaining() < 1 {
                    return Err(CodecError::Truncated);
                }
                MessageRef::Event { kind: event_from_u8(buf.get_u8())? }
            }
            T_DNS_QUERY => {
                let name = get_str(&mut buf)?;
                if buf.remaining() < 1 {
                    return Err(CodecError::Truncated);
                }
                MessageRef::DnsQuery { name, recursion: buf.get_u8() != 0 }
            }
            T_DNS_RESPONSE => {
                let name = get_str(&mut buf)?;
                if buf.remaining() < 6 {
                    return Err(CodecError::Truncated);
                }
                let mut a = [0u8; 4];
                a.copy_from_slice(&buf[..4]);
                buf.advance(4);
                let answers = buf.get_u16();
                if buf.remaining() < answers as usize * 32 {
                    return Err(CodecError::Truncated);
                }
                MessageRef::DnsResponse { name, addr: Ipv4Addr(a), answers }
            }
            T_CLOUD_COMMAND => {
                MessageRef::CloudCommand { action: ControlAction::decode(&mut buf)? }
            }
            t => return Err(CodecError::BadTag(t)),
        };
        Ok(msg)
    }
}

impl From<MessageRef<'_>> for AppMessage {
    fn from(msg: MessageRef<'_>) -> AppMessage {
        match msg {
            MessageRef::MgmtLogin { user, pass } => {
                AppMessage::MgmtLogin { user: user.to_owned().into(), pass: pass.to_owned().into() }
            }
            MessageRef::MgmtLoginOk { token } => AppMessage::MgmtLoginOk { token },
            MessageRef::MgmtDenied => AppMessage::MgmtDenied,
            MessageRef::MgmtCommand { token, command } => {
                AppMessage::MgmtCommand { token, command: command.into() }
            }
            MessageRef::MgmtResult { ok, data } => {
                AppMessage::MgmtResult { ok, data: Bytes::copy_from_slice(data) }
            }
            MessageRef::Control { action, auth } => {
                AppMessage::Control { action, auth: auth.into() }
            }
            MessageRef::ControlAck { ok } => AppMessage::ControlAck { ok },
            MessageRef::Telemetry { kind, value } => AppMessage::Telemetry { kind, value },
            MessageRef::Event { kind } => AppMessage::Event { kind },
            MessageRef::DnsQuery { name, recursion } => {
                AppMessage::DnsQuery { name: name.into(), recursion }
            }
            MessageRef::DnsResponse { name, addr, answers } => {
                AppMessage::DnsResponse { name: name.into(), addr, answers }
            }
            MessageRef::CloudCommand { action } => AppMessage::CloudCommand { action },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(msg: AppMessage) {
        let wire = msg.encode();
        let back = AppMessage::decode(&wire).unwrap();
        assert_eq!(msg, back);
    }

    #[test]
    fn a_borrowed_decode_reads_the_wire_in_place() {
        let wire = AppMessage::MgmtLogin { user: "admin".into(), pass: "hunter2".into() }.encode();
        let Ok(MessageRef::MgmtLogin { user, pass }) = MessageRef::decode(&wire) else {
            panic!("a login decodes as one");
        };
        assert_eq!((user, pass), ("admin", "hunter2"));
        let span = wire.as_ptr_range();
        assert!(span.contains(&user.as_ptr()) && span.contains(&pass.as_ptr()), "copied out");
        // The owned decode is the borrowed one made owned, error for error.
        for cut in 0..wire.len() {
            let owned = AppMessage::decode(&wire[..cut]);
            assert_eq!(owned, MessageRef::decode(&wire[..cut]).map(AppMessage::from));
            assert!(owned.is_err(), "a login cut to {cut} bytes decoded");
        }
    }

    #[test]
    fn round_trip_all_variants() {
        round_trip(AppMessage::MgmtLogin { user: "admin".into(), pass: "admin".into() });
        round_trip(AppMessage::MgmtLoginOk { token: 0xdead });
        round_trip(AppMessage::MgmtDenied);
        round_trip(AppMessage::MgmtCommand { token: 1, command: MgmtCommand::GetImage });
        round_trip(AppMessage::MgmtCommand {
            token: 2,
            command: MgmtCommand::SetPassword { new: "hunter2".into() },
        });
        round_trip(AppMessage::MgmtResult { ok: true, data: Bytes::from_static(b"jpeg") });
        round_trip(AppMessage::Control {
            action: ControlAction::SetTarget(-125),
            auth: ControlAuth::Password { user: "u".into(), pass: "p".into() },
        });
        round_trip(AppMessage::Control { action: ControlAction::Open, auth: ControlAuth::Key(42) });
        round_trip(AppMessage::ControlAck { ok: false });
        round_trip(AppMessage::Telemetry { kind: TelemetryKind::Power, value: 1234.5 });
        round_trip(AppMessage::Event { kind: EventKind::SmokeAlarm });
        round_trip(AppMessage::DnsQuery { name: "evil.example".into(), recursion: true });
        round_trip(AppMessage::DnsResponse {
            name: "evil.example".into(),
            addr: Ipv4Addr::new(6, 6, 6, 6),
            answers: 10,
        });
        round_trip(AppMessage::CloudCommand { action: ControlAction::TurnOn });
    }

    #[test]
    fn dns_response_amplifies_on_the_wire() {
        let q = AppMessage::DnsQuery { name: "x.example".into(), recursion: true };
        let r = AppMessage::DnsResponse {
            name: "x.example".into(),
            addr: Ipv4Addr::new(1, 2, 3, 4),
            answers: 30,
        };
        let amp = r.encode().len() as f64 / q.encode().len() as f64;
        assert!(amp > 20.0, "amplification factor {amp}");
    }

    #[test]
    fn truncated_and_bad_tags_rejected() {
        let wire = AppMessage::MgmtLogin { user: "admin".into(), pass: "admin".into() }.encode();
        assert_eq!(AppMessage::decode(&wire[..3]), Err(CodecError::Truncated));
        assert_eq!(AppMessage::decode(&[]), Err(CodecError::Truncated));
        assert_eq!(AppMessage::decode(&[0xEE]), Err(CodecError::BadTag(0xEE)));
    }

    #[test]
    fn plane_ports() {
        assert_eq!(AppMessage::MgmtDenied.plane_port(), ports::MGMT);
        assert_eq!(
            AppMessage::Control { action: ControlAction::TurnOn, auth: ControlAuth::None }
                .plane_port(),
            ports::CONTROL
        );
        assert_eq!(
            AppMessage::Telemetry { kind: TelemetryKind::Status, value: 0.0 }.plane_port(),
            ports::TELEMETRY
        );
        assert_eq!(
            AppMessage::DnsQuery { name: "a".into(), recursion: false }.plane_port(),
            ports::DNS
        );
        assert!(AppMessage::MgmtDenied.is_tcp_plane());
        assert!(AppMessage::CloudCommand { action: ControlAction::TurnOff }.is_tcp_plane());
        assert!(!AppMessage::Event { kind: EventKind::MotionStart }.is_tcp_plane());
    }

    fn arb_action() -> impl Strategy<Value = ControlAction> {
        prop_oneof![
            Just(ControlAction::TurnOn),
            Just(ControlAction::TurnOff),
            Just(ControlAction::Open),
            Just(ControlAction::Close),
            Just(ControlAction::Lock),
            Just(ControlAction::Unlock),
            any::<i16>().prop_map(ControlAction::SetTarget),
            any::<u8>().prop_map(ControlAction::SetColor),
            (0u8..3).prop_map(ControlAction::SetPhase),
        ]
    }

    fn arb_auth() -> impl Strategy<Value = ControlAuth> {
        prop_oneof![
            Just(ControlAuth::None),
            ("[a-z]{0,8}", "[ -~]{0,12}")
                .prop_map(|(user, pass)| ControlAuth::Password { user, pass }),
            any::<u32>().prop_map(ControlAuth::Token),
            any::<u64>().prop_map(ControlAuth::Key),
        ]
    }

    proptest! {
        #[test]
        fn prop_control_round_trip(action in arb_action(), auth in arb_auth()) {
            round_trip(AppMessage::Control { action, auth });
        }

        #[test]
        fn prop_login_round_trip(user in "[ -~]{0,20}", pass in "[ -~]{0,20}") {
            round_trip(AppMessage::MgmtLogin { user: user.into(), pass: pass.into() });
        }

        #[test]
        fn prop_telemetry_round_trip(k in 0u8..6, v in any::<f64>()) {
            let kind = kind_from_u8(k).unwrap();
            let wire = AppMessage::Telemetry { kind, value: v }.encode();
            let back = AppMessage::decode(&wire).unwrap();
            match back {
                AppMessage::Telemetry { kind: k2, value: v2 } => {
                    prop_assert_eq!(kind, k2);
                    prop_assert!(v2 == v || (v.is_nan() && v2.is_nan()));
                }
                _ => prop_assert!(false),
            }
        }

        #[test]
        fn prop_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = AppMessage::decode(&data);
        }

        #[test]
        fn prop_dns_round_trip(name in "[a-z.]{1,30}", answers in 0u16..100) {
            round_trip(AppMessage::DnsResponse {
                name, addr: Ipv4Addr::new(9, 9, 9, 9), answers,
            });
        }
    }
}
