//! The device wrapper: network plumbing, authentication, vulnerability
//! semantics and session state shared by every device class.
//!
//! A device is an endpoint that speaks the [`crate::proto`] protocol.
//! This module implements the parts common to all classes — management
//! logins and sessions, control-plane authentication, the behavioural
//! effect of each [`Vulnerability`] — and delegates actuation/sensing to
//! the per-class FSMs in [`crate::classes`].

use crate::classes::{DeviceLogic, TickOutput};
use crate::env::Environment;
use crate::events::{SecurityEvent, SecurityEventKind};
use crate::proto::{ports, AppMessage, ControlAction, ControlAuth, EventKind, MgmtCommand};
use crate::registry::Sku;
use crate::vuln::Vulnerability;
use bytes::Bytes;
use core::fmt;
use iotnet::addr::Ipv4Addr;
use iotnet::time::{SimDuration, SimTime};
use std::borrow::Cow;
use std::collections::HashMap;

/// Identifier of a device within a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// The classes of IoT device the substrate models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceClass {
    /// IP surveillance camera (Table 1 rows 1 and 4; Figures 4–5).
    Camera,
    /// Smart plug (Belkin Wemo; Table 1 rows 6–7, Figure 5).
    SmartPlug,
    /// Networked thermostat controlling the HVAC.
    Thermostat,
    /// Smoke/CO alarm (NEST Protect).
    FireAlarm,
    /// Motorized window actuator (Figure 3).
    WindowActuator,
    /// Connected light bulb.
    LightBulb,
    /// Ambient light sensor.
    LightSensor,
    /// Smart door lock.
    SmartLock,
    /// Connected oven (the fire hazard of Figure 5).
    Oven,
    /// PIR motion sensor.
    MotionSensor,
    /// TV set-top box (Table 1 row 2).
    SetTopBox,
    /// Smart refrigerator (Table 1 row 3).
    Refrigerator,
    /// Networked traffic light (Table 1 row 5).
    TrafficLight,
}

impl DeviceClass {
    /// Every modelled class.
    pub const ALL: [DeviceClass; 13] = [
        DeviceClass::Camera,
        DeviceClass::SmartPlug,
        DeviceClass::Thermostat,
        DeviceClass::FireAlarm,
        DeviceClass::WindowActuator,
        DeviceClass::LightBulb,
        DeviceClass::LightSensor,
        DeviceClass::SmartLock,
        DeviceClass::Oven,
        DeviceClass::MotionSensor,
        DeviceClass::SetTopBox,
        DeviceClass::Refrigerator,
        DeviceClass::TrafficLight,
    ];

    /// Whether the class FSM reacts to a continuous variable — room
    /// temperature, smoke density: the ones [`Environment::step`] moves —
    /// so that physics alone can end its [`IoTDevice::steady`]. Every
    /// other class stays steady until somebody acts on it or on the room.
    pub fn senses_physics(self) -> bool {
        matches!(self, DeviceClass::Thermostat | DeviceClass::FireAlarm)
    }

    /// A stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceClass::Camera => "camera",
            DeviceClass::SmartPlug => "smart-plug",
            DeviceClass::Thermostat => "thermostat",
            DeviceClass::FireAlarm => "fire-alarm",
            DeviceClass::WindowActuator => "window-actuator",
            DeviceClass::LightBulb => "light-bulb",
            DeviceClass::LightSensor => "light-sensor",
            DeviceClass::SmartLock => "smart-lock",
            DeviceClass::Oven => "oven",
            DeviceClass::MotionSensor => "motion-sensor",
            DeviceClass::SetTopBox => "set-top-box",
            DeviceClass::Refrigerator => "refrigerator",
            DeviceClass::TrafficLight => "traffic-light",
        }
    }
}

/// Owner-configured administrator credentials.
#[derive(Debug, PartialEq, Eq)]
pub struct AdminCreds {
    /// Username.
    pub user: String,
    /// Password.
    pub pass: String,
}

impl AdminCreds {
    /// Construct credentials.
    pub fn new(user: &str, pass: &str) -> AdminCreds {
        AdminCreds { user: user.into(), pass: pass.into() }
    }

    /// A reasonable owner-chosen credential set.
    pub fn owner_default() -> AdminCreds {
        let mut creds = AdminCreds::new("", "");
        creds.set_owner_default();
        creds
    }

    /// Overwrite with [`AdminCreds::owner_default`] in place, keeping the
    /// strings' capacity.
    fn set_owner_default(&mut self) {
        self.user.replace_range(.., "owner");
        self.pass.replace_range(.., "S3cure!pass");
    }
}

impl Clone for AdminCreds {
    fn clone(&self) -> AdminCreds {
        AdminCreds { user: self.user.clone(), pass: self.pass.clone() }
    }

    /// Copies into the strings this value holds, keeping their capacity.
    fn clone_from(&mut self, source: &AdminCreds) {
        self.user.clone_from(&source.user);
        self.pass.clone_from(&source.pass);
    }
}

/// An application message the device wants sent.
#[derive(Debug, Clone, PartialEq)]
pub struct OutMessage {
    /// Destination IP.
    pub dst: Ipv4Addr,
    /// Destination port.
    pub dst_port: u16,
    /// Source port.
    pub src_port: u16,
    /// The message.
    pub msg: AppMessage<'static>,
}

/// Everything a device produced in response to one stimulus.
#[derive(Debug, Default)]
pub struct DeviceOutput {
    /// Messages to send.
    pub messages: Vec<OutMessage>,
    /// Security events for the controller.
    pub events: Vec<SecurityEvent>,
}

impl DeviceOutput {
    fn reply(
        dst: Ipv4Addr,
        dst_port: u16,
        src_port: u16,
        msg: AppMessage<'static>,
    ) -> DeviceOutput {
        DeviceOutput {
            messages: vec![OutMessage { dst, dst_port, src_port, msg }],
            events: Vec::new(),
        }
    }
}

const AUTH_BURST_THRESHOLD: u32 = 3;

/// One simulated IoT device.
#[derive(Debug)]
pub struct IoTDevice {
    /// Deployment-wide id.
    pub id: DeviceId,
    /// SKU (vendor/model/firmware).
    pub sku: Sku,
    /// Device class.
    pub class: DeviceClass,
    /// The device's own IP address.
    pub ip: Ipv4Addr,
    /// Owner-configured credentials (changeable via `SetPassword`).
    pub creds: AdminCreds,
    /// Unfixable flaws this instance ships with.
    pub vulns: Vec<Vulnerability>,
    /// Class-specific FSM.
    pub logic: DeviceLogic,
    /// Where telemetry and events are reported (the hub / IFTTT bridge).
    pub hub: Option<Ipv4Addr>,
    /// The owner's controller address (the smartphone app); used to tell
    /// legitimate from foreign actuation in metrics.
    pub owner: Option<Ipv4Addr>,
    /// Telemetry period.
    pub telemetry_period: SimDuration,

    sessions: HashMap<u32, Ipv4Addr>,
    next_token: u32,
    auth_failures: HashMap<Ipv4Addr, u32>,
    last_telemetry: SimTime,

    /// Set when an attacker-controlled actuation or backdoor command was
    /// accepted (ground truth for experiments).
    pub compromised: bool,
    /// Set when sensitive data (image/config/keys) left to a non-owner.
    pub privacy_leaked: bool,
    /// Count of DNS reflection responses emitted (DDoS participation).
    pub dns_reflections: u64,
    /// Whether the device is alive (failure injection).
    pub alive: bool,
}

impl IoTDevice {
    /// Create a device of `class` at `ip` with the given SKU and flaws.
    /// The five parameters are the device's identity; every other field
    /// is written by [`IoTDevice::reset_runtime`].
    pub fn new(
        id: DeviceId,
        sku: Sku,
        class: DeviceClass,
        ip: Ipv4Addr,
        vulns: Vec<Vulnerability>,
    ) -> IoTDevice {
        let mut dev = IoTDevice {
            id,
            sku,
            class,
            ip,
            creds: AdminCreds::new("", ""),
            vulns,
            logic: DeviceLogic::new(class),
            hub: None,
            owner: None,
            telemetry_period: SimDuration::ZERO,
            sessions: HashMap::new(),
            next_token: 0,
            auth_failures: HashMap::new(),
            last_telemetry: SimTime::ZERO,
            compromised: false,
            privacy_leaked: false,
            dns_reflections: 0,
            alive: false,
        };
        dev.reset_runtime();
        dev
    }

    /// Bring the device to its t = 0 state, keeping its identity (id,
    /// SKU, class, IP, vulns) and its maps' capacity: factory FSM, the
    /// owner's default credentials (`SetPassword` changes them at run
    /// time), no hub or owner bound, no sessions, nothing compromised.
    /// The constructor ends here, so the device a resident world (E26)
    /// reuses across rounds is a cold-built one by construction; whoever
    /// owns it binds `hub` and `owner` again.
    pub fn reset_runtime(&mut self) {
        self.creds.set_owner_default();
        self.logic = DeviceLogic::new(self.class);
        self.hub = None;
        self.owner = None;
        self.telemetry_period = SimDuration::from_secs(5);
        self.sessions.clear();
        self.next_token = 1;
        self.auth_failures.clear();
        self.last_telemetry = SimTime::ZERO;
        self.compromised = false;
        self.privacy_leaked = false;
        self.dns_reflections = 0;
        self.alive = true;
    }

    /// Whether this instance carries a given vulnerability class.
    pub(crate) fn has_vuln(&self, id: &str) -> bool {
        self.vulns.iter().any(|v| v.id() == id)
    }

    fn default_cred_match(&self, user: &str, pass: &str) -> bool {
        self.vulns.iter().any(|v| match v {
            Vulnerability::DefaultCredentials { user: u, pass: p } => u == user && p == pass,
            _ => false,
        })
    }

    fn leaked_key(&self) -> Option<u64> {
        self.vulns.iter().find_map(|v| match v {
            Vulnerability::ExposedKeyPair { key } => Some(*key),
            _ => None,
        })
    }

    fn is_owner(&self, src: Ipv4Addr) -> bool {
        self.owner == Some(src)
    }

    /// Handle one inbound application message.
    pub fn handle_message(
        &mut self,
        now: SimTime,
        src: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        msg: AppMessage<'_>,
        env: &mut Environment,
    ) -> DeviceOutput {
        if !self.alive {
            return DeviceOutput::default();
        }
        match (dst_port, msg) {
            (ports::MGMT, AppMessage::MgmtLogin { user, pass }) => {
                self.handle_login(now, src, src_port, &user, &pass)
            }
            (ports::MGMT, AppMessage::MgmtCommand { token, command }) => {
                self.handle_mgmt_command(now, src, src_port, token, command)
            }
            (ports::CONTROL, AppMessage::Control { action, auth }) => {
                self.handle_control(now, src, src_port, action, auth, env)
            }
            (ports::DNS, AppMessage::DnsQuery { name, recursion }) => {
                self.handle_dns(now, src, src_port, name, recursion)
            }
            (ports::CLOUD, AppMessage::CloudCommand { action }) => {
                self.handle_cloud(now, src, action, env)
            }
            // Telemetry/events addressed *to* a plain device are ignored;
            // hubs and controllers (in the core crate) consume those.
            _ => DeviceOutput::default(),
        }
    }

    fn handle_login(
        &mut self,
        now: SimTime,
        src: Ipv4Addr,
        src_port: u16,
        user: &str,
        pass: &str,
    ) -> DeviceOutput {
        let open = self.has_vuln("open-mgmt-access");
        let owner_ok = user == self.creds.user && pass == self.creds.pass;
        let default_ok = self.default_cred_match(user, pass);
        if open || owner_ok || default_ok {
            let token = self.next_token;
            self.next_token += 1;
            self.sessions.insert(token, src);
            self.auth_failures.remove(&src);
            let mut out =
                DeviceOutput::reply(src, src_port, ports::MGMT, AppMessage::MgmtLoginOk { token });
            if (default_ok || open) && !self.is_owner(src) {
                out.events.push(
                    SecurityEvent::new(now, self.id, SecurityEventKind::DefaultCredentialLogin)
                        .from_remote(src),
                );
            }
            out
        } else {
            let fails = self.auth_failures.entry(src).or_insert(0);
            *fails += 1;
            let mut out = DeviceOutput::reply(src, src_port, ports::MGMT, AppMessage::MgmtDenied);
            if *fails == AUTH_BURST_THRESHOLD {
                out.events.push(
                    SecurityEvent::new(now, self.id, SecurityEventKind::AuthFailureBurst)
                        .from_remote(src),
                );
            }
            out
        }
    }

    fn session_valid(&self, token: u32, src: Ipv4Addr) -> bool {
        self.sessions.get(&token) == Some(&src)
    }

    fn handle_mgmt_command(
        &mut self,
        _now: SimTime,
        src: Ipv4Addr,
        src_port: u16,
        token: u32,
        command: MgmtCommand<'_>,
    ) -> DeviceOutput {
        let open = self.has_vuln("open-mgmt-access");
        if !open && !self.session_valid(token, src) {
            return DeviceOutput::reply(src, src_port, ports::MGMT, AppMessage::MgmtDenied);
        }
        let foreign = !self.is_owner(src);
        let (ok, data) = match command {
            MgmtCommand::GetConfig => {
                if foreign {
                    self.privacy_leaked = true;
                }
                (true, Bytes::from(format!("ssid=HomeNet;sku={}", self.sku)))
            }
            MgmtCommand::GetImage => match self.logic.image_data() {
                Some(img) => {
                    if foreign {
                        self.privacy_leaked = true;
                    }
                    (true, img)
                }
                None => (false, Bytes::new()),
            },
            MgmtCommand::SetPassword { new } => {
                // The owner can set a password — but a hardcoded default
                // account is burned into firmware and stays valid. This is
                // the "unfixable" in the paper's title.
                self.creds.pass = new.into_owned();
                (true, Bytes::new())
            }
            MgmtCommand::ExtractKeys => match self.leaked_key() {
                Some(key) => {
                    if foreign {
                        self.privacy_leaked = true;
                    }
                    (true, Bytes::copy_from_slice(&key.to_be_bytes()))
                }
                None => (false, Bytes::new()),
            },
            MgmtCommand::FirmwareDump => {
                if foreign {
                    self.privacy_leaked = true;
                }
                (true, Bytes::from_static(b"FWIMG"))
            }
            MgmtCommand::Reboot => {
                self.sessions.clear();
                (true, Bytes::new())
            }
        };
        DeviceOutput::reply(src, src_port, ports::MGMT, AppMessage::MgmtResult { ok, data })
    }

    fn control_authorized(&self, src: Ipv4Addr, auth: &ControlAuth<'_>) -> (bool, bool) {
        // Returns (authorized, was_unauthenticated_path).
        match auth {
            ControlAuth::Password { user, pass } => {
                let ok = (*user == self.creds.user && *pass == self.creds.pass)
                    || self.default_cred_match(user, pass);
                let via_default = self.default_cred_match(user, pass)
                    && !(*user == self.creds.user && *pass == self.creds.pass);
                (ok, via_default)
            }
            ControlAuth::Token(t) => (self.session_valid(*t, src), false),
            ControlAuth::Key(k) => (self.leaked_key() == Some(*k), self.leaked_key() == Some(*k)),
            ControlAuth::None => {
                let open = self.has_vuln("no-auth-control");
                (open, open)
            }
        }
    }

    fn handle_control(
        &mut self,
        now: SimTime,
        src: Ipv4Addr,
        src_port: u16,
        action: ControlAction,
        auth: ControlAuth<'_>,
        env: &mut Environment,
    ) -> DeviceOutput {
        let (authorized, weak_path) = self.control_authorized(src, &auth);
        if !authorized {
            return DeviceOutput::reply(
                src,
                src_port,
                ports::CONTROL,
                AppMessage::ControlAck { ok: false },
            );
        }
        let applied = self.logic.apply_action(action, env);
        let mut out = DeviceOutput::reply(
            src,
            src_port,
            ports::CONTROL,
            AppMessage::ControlAck { ok: applied },
        );
        if applied && weak_path && !self.is_owner(src) {
            self.compromised = true;
            out.events.push(
                SecurityEvent::new(now, self.id, SecurityEventKind::UnauthenticatedActuation)
                    .from_remote(src),
            );
        }
        if applied {
            if let Some(ev) = position_event(self.class, action) {
                out.events.push(SecurityEvent::new(now, self.id, ev));
            }
        }
        out
    }

    fn handle_dns(
        &mut self,
        now: SimTime,
        src: Ipv4Addr,
        src_port: u16,
        name: Cow<'_, str>,
        recursion: bool,
    ) -> DeviceOutput {
        if !self.has_vuln("open-dns-resolver") || !recursion {
            return DeviceOutput::default();
        }
        self.dns_reflections += 1;
        let mut out = DeviceOutput::reply(
            src,
            src_port,
            ports::DNS,
            AppMessage::DnsResponse {
                name: name.into_owned().into(),
                addr: Ipv4Addr::new(93, 184, 216, 34),
                answers: 30,
            },
        );
        if !src.is_private() || !self.is_owner(src) {
            out.events.push(
                SecurityEvent::new(now, self.id, SecurityEventKind::OpenResolverQuery)
                    .from_remote(src),
            );
        }
        out
    }

    fn handle_cloud(
        &mut self,
        now: SimTime,
        src: Ipv4Addr,
        action: ControlAction,
        env: &mut Environment,
    ) -> DeviceOutput {
        if !self.has_vuln("cloud-bypass-backdoor") {
            return DeviceOutput::default();
        }
        // The backdoor channel acknowledges any command: mere access is a
        // compromise (the firmware obeys whoever reaches this plane), even
        // when the specific verb does not apply to this device class.
        let applied = self.logic.apply_action(action, env);
        self.compromised = true;
        let mut out = DeviceOutput::reply(
            src,
            ports::CLOUD,
            ports::CLOUD,
            AppMessage::ControlAck { ok: true },
        );
        out.events.push(
            SecurityEvent::new(now, self.id, SecurityEventKind::BackdoorAccessed).from_remote(src),
        );
        if applied {
            if let Some(ev) = position_event(self.class, action) {
                out.events.push(SecurityEvent::new(now, self.id, ev));
            }
        }
        out
    }

    /// The instant from which [`IoTDevice::tick`] next reports telemetry
    /// (`None` for a dead device, which does nothing).
    pub fn next_due(&self) -> Option<SimTime> {
        self.alive.then(|| self.last_telemetry + self.telemetry_period)
    }

    /// Whether a tick before [`IoTDevice::next_due`] would do nothing:
    /// the device is dead, or its class FSM is `DeviceLogic::steady`.
    pub fn steady(&self, env: &Environment) -> bool {
        !self.alive || self.logic.steady(env)
    }

    /// Account for `ticks` such ticks without running them.
    pub fn coast(&mut self, ticks: u64) {
        if self.alive {
            self.logic.coast(ticks);
        }
    }

    /// Advance the device by one tick: sense/actuate the environment and
    /// emit periodic telemetry.
    pub fn tick(&mut self, now: SimTime, env: &mut Environment) -> DeviceOutput {
        let mut out = DeviceOutput::default();
        self.tick_into(now, env, &mut out);
        out
    }

    /// [`IoTDevice::tick`] appending to a caller-owned output, so a loop
    /// over a home's devices reuses one pair of vectors instead of
    /// growing a fresh pair for every device that has something to say.
    pub fn tick_into(&mut self, now: SimTime, env: &mut Environment, out: &mut DeviceOutput) {
        if !self.alive {
            return;
        }
        let tick_outputs = self.logic.tick(env);
        let due = now.duration_since(self.last_telemetry) >= self.telemetry_period;
        if due {
            self.last_telemetry = now;
        }
        for &t in tick_outputs.iter() {
            match t {
                TickOutput::Telemetry(kind, value) => {
                    if due {
                        if let Some(hub) = self.hub {
                            out.messages.push(OutMessage {
                                dst: hub,
                                dst_port: ports::TELEMETRY,
                                src_port: ports::TELEMETRY,
                                msg: AppMessage::Telemetry { kind, value },
                            });
                        }
                    }
                }
                TickOutput::Event(kind) => {
                    if let Some(hub) = self.hub {
                        out.messages.push(OutMessage {
                            dst: hub,
                            dst_port: ports::TELEMETRY,
                            src_port: ports::TELEMETRY,
                            msg: AppMessage::Event { kind },
                        });
                    }
                    if let Some(sec) = security_event_for(kind) {
                        out.events.push(SecurityEvent::new(now, self.id, sec));
                    }
                }
            }
        }
    }
}

/// Map a device event to the controller-facing security event, if any.
fn security_event_for(kind: EventKind) -> Option<SecurityEventKind> {
    match kind {
        EventKind::SmokeAlarm => Some(SecurityEventKind::SmokeAlarm),
        EventKind::SmokeClear => Some(SecurityEventKind::SmokeCleared),
        EventKind::MotionStart => Some(SecurityEventKind::OccupancyChanged(true)),
        EventKind::MotionStop => Some(SecurityEventKind::OccupancyChanged(false)),
        EventKind::DoorOpened => None,
        EventKind::TamperSuspected => Some(SecurityEventKind::AuthFailureBurst),
    }
}

/// Actuation events the controller's environment view tracks.
fn position_event(class: DeviceClass, action: ControlAction) -> Option<SecurityEventKind> {
    match (class, action) {
        (DeviceClass::WindowActuator, ControlAction::Open) => {
            Some(SecurityEventKind::WindowChanged(true))
        }
        (DeviceClass::WindowActuator, ControlAction::Close) => {
            Some(SecurityEventKind::WindowChanged(false))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Sku;

    fn dev(class: DeviceClass, vulns: Vec<Vulnerability>) -> IoTDevice {
        IoTDevice::new(
            DeviceId(0),
            Sku::new("acme", "widget", "1.0"),
            class,
            Ipv4Addr::new(10, 0, 0, 5),
            vulns,
        )
    }

    fn attacker_ip() -> Ipv4Addr {
        Ipv4Addr::new(100, 64, 0, 99)
    }

    #[test]
    fn a_dead_device_is_steady_and_never_due() {
        // Unsteady for a live camera: the room is occupied and it has
        // not said so yet.
        let mut d = dev(DeviceClass::Camera, vec![]);
        let mut env = Environment::new();
        assert!(!d.steady(&env));
        assert_eq!(d.next_due(), Some(SimTime::from_secs(5)));
        d.alive = false;
        assert!(d.steady(&env));
        assert_eq!(d.next_due(), None);
        let image = d.logic.image_data();
        d.coast(10);
        let out = d.tick(SimTime::from_secs(60), &mut env);
        assert!(out.messages.is_empty() && out.events.is_empty());
        assert_eq!(d.logic.image_data(), image, "a dead camera counts no frames");
    }

    #[test]
    fn telemetry_goes_out_on_the_first_tick_at_or_after_next_due() {
        let mut d = dev(DeviceClass::Refrigerator, vec![]);
        d.hub = Some(Ipv4Addr::new(10, 0, 0, 1));
        let mut env = Environment::new();
        let tick = SimDuration::from_millis(100);
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            let due = d.next_due().expect("alive");
            now += tick;
            let sent = !d.tick(now, &mut env).messages.is_empty();
            assert_eq!(sent, now >= due, "at {now}: next_due said {due}");
        }
    }

    #[test]
    fn owner_login_works() {
        let mut d = dev(DeviceClass::Camera, vec![]);
        let mut env = Environment::new();
        let out = d.handle_message(
            SimTime::ZERO,
            Ipv4Addr::new(10, 0, 0, 2),
            5000,
            ports::MGMT,
            AppMessage::MgmtLogin { user: "owner".into(), pass: "S3cure!pass".into() },
            &mut env,
        );
        assert!(matches!(out.messages[0].msg, AppMessage::MgmtLoginOk { .. }));
        assert!(out.events.is_empty() || !out.events[0].kind.is_suspicious());
    }

    #[test]
    fn default_credentials_survive_password_change() {
        let mut d = dev(DeviceClass::Camera, vec![Vulnerability::default_admin_admin()]);
        let mut env = Environment::new();
        let owner = Ipv4Addr::new(10, 0, 0, 2);
        d.owner = Some(owner);
        // Owner logs in and changes the password.
        let out = d.handle_message(
            SimTime::ZERO,
            owner,
            5000,
            ports::MGMT,
            AppMessage::MgmtLogin { user: "owner".into(), pass: "S3cure!pass".into() },
            &mut env,
        );
        let token = match out.messages[0].msg {
            AppMessage::MgmtLoginOk { token } => token,
            _ => panic!(),
        };
        d.handle_message(
            SimTime::ZERO,
            owner,
            5000,
            ports::MGMT,
            AppMessage::MgmtCommand {
                token,
                command: MgmtCommand::SetPassword { new: "newpass".into() },
            },
            &mut env,
        );
        // Attacker still gets in with admin/admin — the unfixable flaw.
        let out = d.handle_message(
            SimTime::ZERO,
            attacker_ip(),
            6000,
            ports::MGMT,
            AppMessage::MgmtLogin { user: "admin".into(), pass: "admin".into() },
            &mut env,
        );
        assert!(matches!(out.messages[0].msg, AppMessage::MgmtLoginOk { .. }));
        assert_eq!(out.events[0].kind, SecurityEventKind::DefaultCredentialLogin);
    }

    #[test]
    fn brute_force_raises_auth_burst() {
        let mut d = dev(DeviceClass::Camera, vec![]);
        let mut env = Environment::new();
        let mut burst = 0;
        for i in 0..5 {
            let out = d.handle_message(
                SimTime::from_secs(i),
                attacker_ip(),
                6000,
                ports::MGMT,
                AppMessage::MgmtLogin { user: "admin".into(), pass: format!("guess{i}").into() },
                &mut env,
            );
            burst +=
                out.events.iter().filter(|e| e.kind == SecurityEventKind::AuthFailureBurst).count();
            assert!(matches!(out.messages[0].msg, AppMessage::MgmtDenied));
        }
        assert_eq!(burst, 1); // raised exactly once, at the threshold
    }

    #[test]
    fn image_extraction_marks_privacy_leak() {
        let mut d = dev(DeviceClass::Camera, vec![Vulnerability::default_admin_admin()]);
        let mut env = Environment::new();
        let out = d.handle_message(
            SimTime::ZERO,
            attacker_ip(),
            6000,
            ports::MGMT,
            AppMessage::MgmtLogin { user: "admin".into(), pass: "admin".into() },
            &mut env,
        );
        let token = match out.messages[0].msg {
            AppMessage::MgmtLoginOk { token } => token,
            _ => panic!(),
        };
        let out = d.handle_message(
            SimTime::ZERO,
            attacker_ip(),
            6000,
            ports::MGMT,
            AppMessage::MgmtCommand { token, command: MgmtCommand::GetImage },
            &mut env,
        );
        match &out.messages[0].msg {
            AppMessage::MgmtResult { ok, data } => {
                assert!(ok);
                assert!(!data.is_empty());
            }
            _ => panic!(),
        }
        assert!(d.privacy_leaked);
    }

    #[test]
    fn session_tokens_are_source_bound() {
        let mut d = dev(DeviceClass::Camera, vec![]);
        let mut env = Environment::new();
        let owner = Ipv4Addr::new(10, 0, 0, 2);
        let out = d.handle_message(
            SimTime::ZERO,
            owner,
            5000,
            ports::MGMT,
            AppMessage::MgmtLogin { user: "owner".into(), pass: "S3cure!pass".into() },
            &mut env,
        );
        let token = match out.messages[0].msg {
            AppMessage::MgmtLoginOk { token } => token,
            _ => panic!(),
        };
        // Attacker replays the token from a different address.
        let out = d.handle_message(
            SimTime::ZERO,
            attacker_ip(),
            6000,
            ports::MGMT,
            AppMessage::MgmtCommand { token, command: MgmtCommand::GetConfig },
            &mut env,
        );
        assert!(matches!(out.messages[0].msg, AppMessage::MgmtDenied));
        assert!(!d.privacy_leaked);
    }

    #[test]
    fn no_auth_control_accepts_anyone_and_flags_compromise() {
        let mut d = dev(DeviceClass::TrafficLight, vec![Vulnerability::NoAuthControl]);
        let mut env = Environment::new();
        let out = d.handle_message(
            SimTime::ZERO,
            attacker_ip(),
            6000,
            ports::CONTROL,
            AppMessage::Control { action: ControlAction::SetPhase(2), auth: ControlAuth::None },
            &mut env,
        );
        assert!(matches!(out.messages[0].msg, AppMessage::ControlAck { ok: true }));
        assert!(d.compromised);
        assert_eq!(out.events[0].kind, SecurityEventKind::UnauthenticatedActuation);
    }

    #[test]
    fn secure_device_rejects_unauthenticated_control() {
        let mut d = dev(DeviceClass::SmartPlug, vec![]);
        let mut env = Environment::new();
        let out = d.handle_message(
            SimTime::ZERO,
            attacker_ip(),
            6000,
            ports::CONTROL,
            AppMessage::Control { action: ControlAction::TurnOn, auth: ControlAuth::None },
            &mut env,
        );
        assert!(matches!(out.messages[0].msg, AppMessage::ControlAck { ok: false }));
        assert!(!d.compromised);
    }

    #[test]
    fn leaked_key_authorizes_control() {
        let mut d = dev(DeviceClass::Camera, vec![Vulnerability::ExposedKeyPair { key: 0xBEEF }]);
        let mut env = Environment::new();
        let out = d.handle_message(
            SimTime::ZERO,
            attacker_ip(),
            6000,
            ports::CONTROL,
            AppMessage::Control { action: ControlAction::TurnOff, auth: ControlAuth::Key(0xBEEF) },
            &mut env,
        );
        assert!(matches!(out.messages[0].msg, AppMessage::ControlAck { ok: true }));
        assert!(d.compromised);
        // Wrong key fails.
        let out = d.handle_message(
            SimTime::ZERO,
            attacker_ip(),
            6000,
            ports::CONTROL,
            AppMessage::Control { action: ControlAction::TurnOff, auth: ControlAuth::Key(0xDEAD) },
            &mut env,
        );
        assert!(matches!(out.messages[0].msg, AppMessage::ControlAck { ok: false }));
    }

    #[test]
    fn open_resolver_reflects_and_reports() {
        let mut d = dev(DeviceClass::SmartPlug, vec![Vulnerability::OpenDnsResolver]);
        let mut env = Environment::new();
        // Spoofed source: the victim's address.
        let victim = Ipv4Addr::new(203, 0, 113, 7);
        let out = d.handle_message(
            SimTime::ZERO,
            victim,
            53,
            ports::DNS,
            AppMessage::DnsQuery { name: "big.example".into(), recursion: true },
            &mut env,
        );
        assert_eq!(out.messages[0].dst, victim);
        assert!(matches!(out.messages[0].msg, AppMessage::DnsResponse { .. }));
        assert_eq!(d.dns_reflections, 1);
        assert_eq!(out.events[0].kind, SecurityEventKind::OpenResolverQuery);
        // A patched device ignores DNS entirely.
        let mut d2 = dev(DeviceClass::SmartPlug, vec![]);
        let out = d2.handle_message(
            SimTime::ZERO,
            victim,
            53,
            ports::DNS,
            AppMessage::DnsQuery { name: "big.example".into(), recursion: true },
            &mut env,
        );
        assert!(out.messages.is_empty());
    }

    #[test]
    fn cloud_backdoor_bypasses_auth() {
        let mut d = dev(DeviceClass::SmartPlug, vec![Vulnerability::CloudBypassBackdoor]);
        let mut env = Environment::new();
        let out = d.handle_message(
            SimTime::ZERO,
            attacker_ip(),
            6000,
            ports::CLOUD,
            AppMessage::CloudCommand { action: ControlAction::TurnOn },
            &mut env,
        );
        assert!(d.compromised);
        assert_eq!(out.events[0].kind, SecurityEventKind::BackdoorAccessed);
        // Without the vuln the channel is dead.
        let mut d2 = dev(DeviceClass::SmartPlug, vec![]);
        let out = d2.handle_message(
            SimTime::ZERO,
            attacker_ip(),
            6000,
            ports::CLOUD,
            AppMessage::CloudCommand { action: ControlAction::TurnOn },
            &mut env,
        );
        assert!(out.events.is_empty());
        assert!(!d2.compromised);
    }

    #[test]
    fn dead_device_is_silent() {
        let mut d = dev(DeviceClass::Camera, vec![Vulnerability::OpenMgmtAccess]);
        d.alive = false;
        let mut env = Environment::new();
        let out = d.handle_message(
            SimTime::ZERO,
            attacker_ip(),
            6000,
            ports::MGMT,
            AppMessage::MgmtLogin { user: "x".into(), pass: "y".into() },
            &mut env,
        );
        assert!(out.messages.is_empty());
        assert!(d.tick(SimTime::from_secs(10), &mut env).messages.is_empty());
    }

    #[test]
    fn telemetry_respects_period_and_hub() {
        let mut d = dev(DeviceClass::Thermostat, vec![]);
        let mut env = Environment::new();
        // No hub: nothing to send.
        let out = d.tick(SimTime::from_secs(10), &mut env);
        assert!(out.messages.is_empty());
        d.hub = Some(Ipv4Addr::new(10, 0, 0, 1));
        let out = d.tick(SimTime::from_secs(20), &mut env);
        assert!(out.messages.iter().any(|m| matches!(m.msg, AppMessage::Telemetry { .. })));
        // Immediately after, the period gates it.
        let out = d.tick(SimTime::from_secs(21), &mut env);
        assert!(!out.messages.iter().any(|m| matches!(m.msg, AppMessage::Telemetry { .. })));
    }
}
